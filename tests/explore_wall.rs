//! Differential wall for state exploration.
//!
//! [`explore_tau`] explores states modulo structural congruence:
//! compositions flattened, `0` components dropped and, at a replication
//! budget of two or more, a copy `Q` beside `!Q` absorbed. The reference
//! here is the plain breadth-first search it replaced: the same
//! commitments, states deduplicated by [`alpha_hash`] alone. Wherever the
//! reference finishes within its budgets, both must observe the same
//! outputs (canonical channel and value, as the carefulness monitor
//! reads them) and the same barbs, and the explorer must finish too. The
//! corpus mixes seeded random processes, the same with replicated
//! servers beside them, hand-written replicated shapes (nested `!`
//! included), the ladder rungs and the zoo, at budgets 1 and 2.

use nuspi_bench::genproc::{random_process, GenConfig};
use nuspi_protocols::suite;
use nuspi_semantics::{commitments, explore_tau, Action, Agent, Commitment, ExecConfig};
use nuspi_syntax::{alpha_hash, builder, parse_process, Process};
use std::collections::{BTreeSet, HashSet};

/// What a search observed: every output premise and every barb.
#[derive(Default, PartialEq, Eq, Debug)]
struct Observed {
    outputs: BTreeSet<(String, String)>,
    barbs: BTreeSet<String>,
}

impl Observed {
    fn record(&mut self, cs: &[Commitment]) {
        for c in cs {
            for o in &c.outputs {
                let value = o.value.canonicalize().to_string();
                self.outputs
                    .insert((o.channel.canonical().to_string(), value));
            }
            match c.action {
                Action::In(m) => self.barbs.insert(format!("{}", m.canonical())),
                Action::Out(m) => self.barbs.insert(format!("{}̄", m.canonical())),
                Action::Tau => false,
            };
        }
    }
}

/// The α-only reference search; `None` when a budget cut it short.
fn reference(p: &Process, cfg: &ExecConfig) -> Option<Observed> {
    let ccfg = nuspi_semantics::CommitConfig {
        mode: cfg.mode,
        rep_budget: cfg.rep_budget,
    };
    let mut seen = HashSet::from([alpha_hash(p)]);
    let mut frontier = vec![p.clone()];
    let (mut observed, mut states) = (Observed::default(), 0);
    for _ in 0..=cfg.max_depth {
        let mut next = Vec::new();
        for state in frontier {
            states += 1;
            if states > cfg.max_states {
                return None;
            }
            let cs = commitments(&state, &ccfg);
            observed.record(&cs);
            for c in cs {
                if let (Action::Tau, Agent::Proc(q)) = (c.action, c.agent) {
                    if seen.insert(alpha_hash(&q)) {
                        next.push(q);
                    }
                }
            }
        }
        if next.is_empty() {
            return Some(observed);
        }
        frontier = next;
    }
    None
}

/// Checks one process at budgets 1 and 2; returns how many of the two
/// runs the reference finished (and so were compared).
fn check(name: &str, p: &Process) -> usize {
    let mut compared = 0;
    for rep_budget in [1, 2] {
        let cfg = ExecConfig {
            rep_budget,
            max_depth: 10,
            max_states: 150,
            ..ExecConfig::default()
        };
        let Some(expected) = reference(p, &cfg) else {
            continue;
        };
        let mut observed = Observed::default();
        let stats = explore_tau(p, &cfg, |_, cs| {
            observed.record(cs);
            true
        });
        assert!(
            !stats.truncated,
            "{name} @ rep {rep_budget}: {stats:?}\n{p}"
        );
        assert_eq!(observed, expected, "{name} @ rep {rep_budget}\n{p}");
        compared += 1;
    }
    compared
}

#[test]
fn explorer_matches_the_alpha_only_reference_on_random_processes() {
    let gcfg = GenConfig::default();
    let mut compared = 0;
    for seed in 0..120u64 {
        let p = random_process(seed, &gcfg);
        compared += check(&format!("seed {seed}"), &p);
        // A replicated server beside the network: one random component,
        // or a whole small network, offered forever.
        let server = random_process(
            seed + 10_000,
            &GenConfig {
                components: 1 + (seed % 2) as usize,
                ..GenConfig::default()
            },
        );
        let served = builder::par(p, builder::replicate(server));
        compared += check(&format!("seed {seed} + !server"), &served);
    }
    assert!(
        compared >= 400,
        "too few finished reference runs: {compared}"
    );
}

#[test]
fn explorer_matches_the_alpha_only_reference_on_replicated_shapes() {
    for src in [
        "!a(x).b<x>.0 | a<m>.0 | a<n>.0",
        "!a(x).b<x>.0 | !b(y).c<y>.0 | a<m>.0",
        "(new k) (!a(x).b<(x, x)>.0 | a<k>.0 | b(y).out<y>.0)",
        "!(a(x).b<x>.0 | a(y).c<y>.0) | a<m>.0 | a<n>.0",
        "!!a(x).b<x>.0 | a<m>.0 | a<n>.0 | b(y).0",
        "!!(a(x).b<x>.0 | c(y).d<y>.0) | a<m>.0 | c<n>.0",
        "(new s) (!(new r) a<(s, r)>.0 | a(x). let (y, z) = x in c<y>.0)",
        "!(new r) a<r>.0 | a(x).a(y).[x is y] same<x>.0",
        "[m is m] !a(x).b<x>.0 | a<m>.0",
        "(hide h) (!a(x).b<x>.0 | a<h>.0 | b(y).0)",
    ] {
        let p = parse_process(src).unwrap();
        assert!(check(src, &p) > 0, "{src}: the reference never finished");
    }
}

#[test]
fn explorer_matches_the_alpha_only_reference_on_the_ladder_and_zoo() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/lang");
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("nu") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let name = path.display().to_string();
        check(&name, &nuspi_lang::compile(&name, &src).unwrap().process);
    }
    for spec in suite() {
        check(spec.name, &spec.process);
    }
}
