//! The reduction relation `P > Q` and the commitment relation `P —α→ A`
//! (Table 1, middle and lower parts).
//!
//! Reductions evaluate guards: matching, pair splitting, integer case,
//! decryption, and replication unfolding. Freshly minted confounders are
//! re-wrapped as restrictions around the continuation, preserving scopes.
//!
//! Commitments are computed compositionally. Every restriction binder is
//! *freshened* (same canonical base, globally unique index) at the moment
//! its scope is opened, which discharges all the side conditions of
//! Table 1 (`r̃ fn(P)` without duplicates, `{ñ} ∩ fn(P) = ∅`) by
//! construction.
//!
//! Replication is unfolded lazily up to [`CommitConfig::rep_budget`]
//! copies per enumeration — two copies suffice to expose both the actions
//! of a replicated process and its self-communications.

use crate::agent::{Abstraction, Action, Agent, Commitment, Concretion, OutputEvent};
use crate::eval::{eval, EvalMode};
use nuspi_syntax::{builder, Name, Process, Value};

/// Parameters of the commitment enumeration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CommitConfig {
    /// Evaluation mode (νSPI or classic spi).
    pub mode: EvalMode,
    /// How many copies of each replication may be unfolded while
    /// enumerating the commitments of one state.
    pub rep_budget: u32,
}

impl Default for CommitConfig {
    fn default() -> CommitConfig {
        CommitConfig {
            mode: EvalMode::NuSpi,
            rep_budget: 2,
        }
    }
}

/// Performs one reduction step `P > Q` at the top of the process, if a
/// reduction rule applies. The returned process already carries the
/// restrictions `(νr̃)` introduced by guard evaluation.
///
/// Returns `None` when no reduction rule applies at the root (the process
/// is a prefix, a composition, inert, or a stuck guard).
pub fn reduce(p: &Process, mode: EvalMode) -> Option<Process> {
    match p {
        Process::Match { lhs, rhs, then } => {
            let l = eval(lhs, mode).ok()?;
            let r = eval(rhs, mode).ok()?;
            if l.value == r.value {
                let mut restricted = l.restricted;
                restricted.extend(r.restricted);
                Some(builder::restrict_all(restricted, (**then).clone()))
            } else {
                None
            }
        }
        Process::Let {
            fst,
            snd,
            expr,
            then,
        } => {
            let e = eval(expr, mode).ok()?;
            match &*e.value {
                Value::Pair(a, b) => {
                    let body = then.subst(*fst, a).subst(*snd, b);
                    Some(builder::restrict_all(e.restricted, body))
                }
                _ => None,
            }
        }
        Process::CaseNat {
            expr,
            zero,
            pred,
            succ,
        } => {
            let e = eval(expr, mode).ok()?;
            match &*e.value {
                Value::Zero => Some((**zero).clone()),
                Value::Suc(w) => {
                    let body = succ.subst(*pred, w);
                    Some(builder::restrict_all(e.restricted, body))
                }
                _ => None,
            }
        }
        Process::CaseDec {
            expr,
            vars,
            key,
            then,
        } => {
            let e = eval(expr, mode).ok()?;
            let k = eval(key, mode).ok()?;
            match &*e.value {
                Value::Enc {
                    payload,
                    key: used_key,
                    ..
                } if payload.len() == vars.len() && **used_key == *k.value => {
                    let mut body = (**then).clone();
                    for (x, w) in vars.iter().zip(payload) {
                        body = body.subst(*x, w);
                    }
                    Some(builder::restrict_all(e.restricted, body))
                }
                _ => None,
            }
        }
        Process::Replicate(q) => Some(builder::par((**q).clone(), p.clone())),
        _ => None,
    }
}

/// Enumerates every commitment `P —α→ A` of a closed process.
///
/// The enumeration is complete for the given replication budget: all
/// inputs, outputs and internal communications derivable with at most
/// `cfg.rep_budget` unfoldings per replication are returned.
pub fn commitments(p: &Process, cfg: &CommitConfig) -> Vec<Commitment> {
    match p {
        Process::Nil => Vec::new(),
        Process::Output { chan, msg, then } => {
            let Ok(c) = eval(chan, cfg.mode) else {
                return Vec::new();
            };
            let Some(m) = c.value.as_name() else {
                return Vec::new(); // channels must be names
            };
            let Ok(e) = eval(msg, cfg.mode) else {
                return Vec::new();
            };
            vec![Commitment {
                action: Action::Out(m),
                outputs: vec![OutputEvent {
                    channel: m,
                    value: e.value.clone(),
                    label: e.label,
                }],
                agent: Agent::Conc(Concretion {
                    restricted: e.restricted,
                    value: e.value,
                    label: e.label,
                    body: (**then).clone(),
                }),
                mode: cfg.mode,
            }]
        }
        Process::Input { chan, var, then } => {
            let Ok(c) = eval(chan, cfg.mode) else {
                return Vec::new();
            };
            let Some(m) = c.value.as_name() else {
                return Vec::new();
            };
            vec![Commitment {
                action: Action::In(m),
                outputs: Vec::new(),
                agent: Agent::Abs(Abstraction {
                    restricted: Vec::new(),
                    var: *var,
                    body: (**then).clone(),
                }),
                mode: cfg.mode,
            }]
        }
        Process::Par(left, right) => {
            let base_l = commitments(left, cfg);
            let base_r = commitments(right, cfg);
            let mut out = Vec::new();
            for c in &base_l {
                out.push(Commitment {
                    action: c.action,
                    agent: agent_par_right(c.agent.clone(), right),
                    outputs: c.outputs.clone(),
                    mode: cfg.mode,
                });
            }
            for c in &base_r {
                out.push(Commitment {
                    action: c.action,
                    agent: agent_par_left(left, c.agent.clone()),
                    outputs: c.outputs.clone(),
                    mode: cfg.mode,
                });
            }
            // Inter: complementary visible actions communicate.
            for cl in &base_l {
                for cr in &base_r {
                    if !cl.action.complements(cr.action) {
                        continue;
                    }
                    let interaction = match (&cl.agent, &cr.agent) {
                        (Agent::Abs(f), Agent::Conc(c)) => f.interact(c),
                        (Agent::Conc(c), Agent::Abs(f)) => f.interact_flipped(c),
                        _ => continue,
                    };
                    let mut outputs = cl.outputs.clone();
                    outputs.extend(cr.outputs.iter().cloned());
                    out.push(Commitment {
                        action: Action::Tau,
                        agent: Agent::Proc(interaction),
                        outputs,
                        mode: cfg.mode,
                    });
                }
            }
            out
        }
        Process::Restrict { name, body } => {
            // Freshen the binder before opening its scope: the side
            // conditions of `Res` then hold by global uniqueness.
            let fresh = name.freshen();
            let opened = body.rename_name(*name, fresh);
            commitments(&opened, cfg)
                .into_iter()
                .filter(|c| c.action.channel() != Some(fresh))
                .map(|c| Commitment {
                    action: c.action,
                    agent: agent_restrict(fresh, c.agent),
                    outputs: c.outputs,
                    mode: cfg.mode,
                })
                .collect()
        }
        Process::Hide { name, body } => {
            // `hide` (no-extrusion rule): like `Res`, the binder is
            // freshened and actions on the hidden channel are blocked, but
            // the scope never extrudes — a concretion whose message
            // mentions the hidden name is dropped entirely instead of
            // carrying the binder out.
            let fresh = name.freshen();
            let opened = body.rename_name(*name, fresh);
            commitments(&opened, cfg)
                .into_iter()
                .filter(|c| c.action.channel() != Some(fresh))
                .filter_map(|c| {
                    agent_hide(fresh, c.agent).map(|agent| Commitment {
                        action: c.action,
                        agent,
                        outputs: c.outputs,
                        mode: cfg.mode,
                    })
                })
                .collect()
        }
        Process::Replicate(q) => {
            if cfg.rep_budget == 0 {
                return Vec::new();
            }
            let inner = CommitConfig {
                mode: cfg.mode,
                rep_budget: cfg.rep_budget - 1,
            };
            let unfolded = builder::par((**q).clone(), p.clone());
            commitments(&unfolded, &inner)
        }
        // Guard forms: rule `Red` — reduce, then commit.
        Process::Match { .. }
        | Process::Let { .. }
        | Process::CaseNat { .. }
        | Process::CaseDec { .. } => match reduce(p, cfg.mode) {
            Some(q) => commitments(&q, cfg),
            None => Vec::new(),
        },
    }
}

impl Abstraction {
    /// `C@F`, the symmetric interaction: identical result to `F@C` up to
    /// the commutativity of parallel composition; we keep the concretion's
    /// continuation on the left to mirror the derivation order.
    pub fn interact_flipped(&self, conc: &Concretion) -> Process {
        let received = self.body.subst(self.var, &conc.value);
        let inner = builder::par(conc.body.clone(), received);
        let wrapped = builder::restrict_all(conc.restricted.iter().copied(), inner);
        builder::restrict_all(self.restricted.iter().copied(), wrapped)
    }
}

/// `A | Q` (rule `Par`).
fn agent_par_right(agent: Agent, q: &Process) -> Agent {
    match agent {
        Agent::Proc(p) => Agent::Proc(builder::par(p, q.clone())),
        Agent::Abs(a) => Agent::Abs(Abstraction {
            restricted: a.restricted,
            var: a.var,
            body: builder::par(a.body, q.clone()),
        }),
        Agent::Conc(c) => Agent::Conc(Concretion {
            restricted: c.restricted,
            value: c.value,
            label: c.label,
            body: builder::par(c.body, q.clone()),
        }),
    }
}

/// `P | A` (symmetric `Par`).
fn agent_par_left(p: &Process, agent: Agent) -> Agent {
    match agent {
        Agent::Proc(q) => Agent::Proc(builder::par(p.clone(), q)),
        Agent::Abs(a) => Agent::Abs(Abstraction {
            restricted: a.restricted,
            var: a.var,
            body: builder::par(p.clone(), a.body),
        }),
        Agent::Conc(c) => Agent::Conc(Concretion {
            restricted: c.restricted,
            value: c.value,
            label: c.label,
            body: builder::par(p.clone(), c.body),
        }),
    }
}

/// `(νm)A` (rule `Res`): scope extrusion for concretions whose message
/// mentions `m`, otherwise the restriction stays on the continuation.
fn agent_restrict(m: Name, agent: Agent) -> Agent {
    match agent {
        Agent::Proc(p) => Agent::Proc(builder::restrict(m, p)),
        Agent::Abs(a) => Agent::Abs(Abstraction {
            restricted: a.restricted,
            var: a.var,
            body: builder::restrict(m, a.body),
        }),
        Agent::Conc(c) => {
            if c.value.contains_name(m) {
                let mut restricted = vec![m];
                restricted.extend(c.restricted);
                Agent::Conc(Concretion {
                    restricted,
                    value: c.value,
                    label: c.label,
                    body: c.body,
                })
            } else {
                Agent::Conc(Concretion {
                    restricted: c.restricted,
                    value: c.value,
                    label: c.label,
                    body: builder::restrict(m, c.body),
                })
            }
        }
    }
}

/// `(hide m)A`: no scope extrusion. A concretion whose message mentions
/// `m` is blocked (`None`); every other agent keeps the hiding on its
/// continuation.
fn agent_hide(m: Name, agent: Agent) -> Option<Agent> {
    match agent {
        Agent::Proc(p) => Some(Agent::Proc(builder::hide(m, p))),
        Agent::Abs(a) => Some(Agent::Abs(Abstraction {
            restricted: a.restricted,
            var: a.var,
            body: builder::hide(m, a.body),
        })),
        Agent::Conc(c) => {
            if c.value.contains_name(m) {
                None
            } else {
                Some(Agent::Conc(Concretion {
                    restricted: c.restricted,
                    value: c.value,
                    label: c.label,
                    body: builder::hide(m, c.body),
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_syntax::{builder as b, parse_process, Var};
    use std::sync::Arc;

    fn cfg() -> CommitConfig {
        CommitConfig::default()
    }

    fn taus(p: &Process) -> Vec<Process> {
        commitments(p, &cfg())
            .into_iter()
            .filter(|c| c.action == Action::Tau)
            .map(|c| match c.agent {
                Agent::Proc(q) => q,
                other => panic!("τ with non-process agent {other:?}"),
            })
            .collect()
    }

    #[test]
    fn nil_has_no_commitments() {
        assert!(commitments(&Process::Nil, &cfg()).is_empty());
    }

    #[test]
    fn output_commits_on_its_channel() {
        let p = parse_process("c<0>.0").unwrap();
        let cs = commitments(&p, &cfg());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].action, Action::Out(Name::global("c")));
        assert_eq!(cs[0].outputs.len(), 1);
        match &cs[0].agent {
            Agent::Conc(c) => assert_eq!(c.value, Value::zero()),
            other => panic!("expected concretion, got {other:?}"),
        }
    }

    #[test]
    fn input_commits_with_abstraction() {
        let p = parse_process("c(x).0").unwrap();
        let cs = commitments(&p, &cfg());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].action, Action::In(Name::global("c")));
        assert!(matches!(cs[0].agent, Agent::Abs(_)));
    }

    #[test]
    fn non_name_channel_is_stuck() {
        let p = b::output(b::pair(b::zero(), b::zero()), b::zero(), b::nil());
        assert!(commitments(&p, &cfg()).is_empty());
    }

    #[test]
    fn communication_yields_tau() {
        let p = parse_process("c<m>.0 | c(x).d<x>.0").unwrap();
        let succs = taus(&p);
        assert_eq!(succs.len(), 1);
        // After the communication, the receiver forwards m on d.
        let next = commitments(&succs[0], &cfg());
        assert!(next
            .iter()
            .any(|c| c.action == Action::Out(Name::global("d"))));
    }

    #[test]
    fn tau_records_the_output_premise() {
        let p = parse_process("c<m>.0 | c(x).0").unwrap();
        let cs = commitments(&p, &cfg());
        let tau = cs.iter().find(|c| c.action == Action::Tau).unwrap();
        assert_eq!(tau.outputs.len(), 1);
        assert_eq!(tau.outputs[0].channel, Name::global("c"));
        assert_eq!(tau.outputs[0].value, Value::name("m"));
    }

    #[test]
    fn restriction_hides_the_channel() {
        let p = parse_process("(new c) c<0>.0").unwrap();
        assert!(commitments(&p, &cfg()).is_empty());
        // But internal communication on the restricted channel is a τ.
        let q = parse_process("(new c) (c<0>.0 | c(x).0)").unwrap();
        assert_eq!(taus(&q).len(), 1);
    }

    #[test]
    fn scope_extrusion_restricts_the_message() {
        let p = parse_process("(new s) c<s>.0").unwrap();
        let cs = commitments(&p, &cfg());
        assert_eq!(cs.len(), 1);
        match &cs[0].agent {
            Agent::Conc(c) => {
                assert_eq!(c.restricted.len(), 1);
                assert!(c.value.contains_name(c.restricted[0]));
                assert_eq!(c.restricted[0].canonical().as_str(), "s");
            }
            other => panic!("expected concretion, got {other:?}"),
        }
    }

    #[test]
    fn match_of_equal_names_reduces() {
        let p = parse_process("[a is a] c<0>.0").unwrap();
        assert_eq!(commitments(&p, &cfg()).len(), 1);
        let q = parse_process("[a is b] c<0>.0").unwrap();
        assert!(commitments(&q, &cfg()).is_empty());
    }

    #[test]
    fn match_of_two_encryptions_never_succeeds_in_nuspi() {
        // Even syntactically identical encryption sites differ dynamically.
        let p = parse_process("[{0, new r}:k is {0, new r}:k] c<0>.0").unwrap();
        assert!(
            commitments(&p, &cfg()).is_empty(),
            "history dependence must block the match"
        );
    }

    #[test]
    fn match_of_two_encryptions_succeeds_in_classic_mode() {
        let p = parse_process("[{0, new r}:k is {0, new r}:k] c<0>.0").unwrap();
        let classic = CommitConfig {
            mode: EvalMode::ClassicSpi,
            rep_budget: 2,
        };
        assert_eq!(commitments(&p, &classic).len(), 1);
    }

    #[test]
    fn let_splits_pairs() {
        let p = parse_process("let (x, y) = (a, b) in c<x>.c<y>.0").unwrap();
        let cs = commitments(&p, &cfg());
        assert_eq!(cs.len(), 1);
        match &cs[0].agent {
            Agent::Conc(c) => assert_eq!(c.value, Value::name("a")),
            other => panic!("expected concretion, got {other:?}"),
        }
    }

    #[test]
    fn let_on_non_pair_is_stuck() {
        let p = parse_process("let (x, y) = 0 in c<x>.0").unwrap();
        assert!(commitments(&p, &cfg()).is_empty());
    }

    #[test]
    fn case_nat_selects_branches() {
        let z = parse_process("case 0 of 0: a<0>.0, suc(x): b<x>.0").unwrap();
        let cs = commitments(&z, &cfg());
        assert_eq!(cs[0].action, Action::Out(Name::global("a")));

        let s = parse_process("case 2 of 0: a<0>.0, suc(x): b<x>.0").unwrap();
        let cs = commitments(&s, &cfg());
        assert_eq!(cs[0].action, Action::Out(Name::global("b")));
        match &cs[0].agent {
            Agent::Conc(c) => assert_eq!(c.value.as_numeral(), Some(1)),
            other => panic!("expected concretion, got {other:?}"),
        }
    }

    #[test]
    fn decryption_with_right_key_succeeds() {
        let p = parse_process("case {m, new r}:k of {x}:k in c<x>.0").unwrap();
        let cs = commitments(&p, &cfg());
        assert_eq!(cs.len(), 1);
        match &cs[0].agent {
            Agent::Conc(c) => assert_eq!(c.value, Value::name("m")),
            other => panic!("expected concretion, got {other:?}"),
        }
    }

    #[test]
    fn decryption_with_wrong_key_is_stuck() {
        let p = parse_process("case {m, new r}:k of {x}:k2 in c<x>.0").unwrap();
        assert!(commitments(&p, &cfg()).is_empty());
    }

    #[test]
    fn decryption_with_wrong_arity_is_stuck() {
        let p = parse_process("case {m, new r}:k of {x, y}:k in c<x>.0").unwrap();
        assert!(commitments(&p, &cfg()).is_empty());
    }

    #[test]
    fn decryption_hides_the_confounder() {
        let p = parse_process("case {m, new r}:k of {x}:k in c<x>.0").unwrap();
        let cs = commitments(&p, &cfg());
        match &cs[0].agent {
            Agent::Conc(c) => {
                assert_eq!(c.value, Value::name("m"), "payload only, no confounder");
            }
            other => panic!("expected concretion, got {other:?}"),
        }
    }

    #[test]
    fn replication_provides_multiple_copies() {
        let p = parse_process("!c<0>.0").unwrap();
        let cs = commitments(&p, &cfg());
        assert!(!cs.is_empty());
        assert!(cs
            .iter()
            .all(|c| c.action == Action::Out(Name::global("c"))));
    }

    #[test]
    fn replication_self_communicates() {
        let p = parse_process("!(c<0>.0 | c(x).d<x>.0)").unwrap();
        let cs = commitments(&p, &cfg());
        assert!(cs.iter().any(|c| c.action == Action::Tau));
    }

    #[test]
    fn replication_budget_zero_is_inert() {
        let p = parse_process("!c<0>.0").unwrap();
        let tight = CommitConfig {
            mode: EvalMode::NuSpi,
            rep_budget: 0,
        };
        assert!(commitments(&p, &tight).is_empty());
    }

    #[test]
    fn reduce_unfolds_replication() {
        let p = parse_process("!c<0>.0").unwrap();
        let q = reduce(&p, EvalMode::NuSpi).unwrap();
        assert!(matches!(q, Process::Par(_, _)));
    }

    #[test]
    fn output_under_restriction_extrudes_fresh_confounder() {
        // The message is an encryption: its confounder must be carried as a
        // restricted name of the concretion.
        let p = parse_process("c<{m, new r}:k>.0").unwrap();
        let cs = commitments(&p, &cfg());
        match &cs[0].agent {
            Agent::Conc(c) => {
                assert_eq!(c.restricted.len(), 1);
                assert_eq!(c.restricted[0].canonical().as_str(), "r");
            }
            other => panic!("expected concretion, got {other:?}"),
        }
    }

    #[test]
    fn restricted_channel_blocks_even_under_par() {
        let p = parse_process("(new c) (c<0>.0 | d<0>.0)").unwrap();
        let cs = commitments(&p, &cfg());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].action, Action::Out(Name::global("d")));
    }

    #[test]
    fn freshened_binders_avoid_capture_on_interaction() {
        // Sender extrudes a fresh s; receiver already knows a distinct s.
        let p = parse_process("((new s) c<s>.0) | c(x).[x is s] d<0>.0").unwrap();
        let succs = taus(&p);
        assert_eq!(succs.len(), 1);
        // The match [fresh-s is global-s] must fail: no d output reachable.
        let next = commitments(&succs[0], &cfg());
        assert!(next
            .iter()
            .all(|c| c.action != Action::Out(Name::global("d"))));
    }

    #[test]
    fn substituted_value_keeps_variable_label() {
        let x = Var::fresh("x");
        let body = b::output(b::name("d"), b::var(x), b::nil());
        let var_label = match &body {
            Process::Output { msg, .. } => msg.label,
            _ => unreachable!(),
        };
        let p = b::par(
            b::output(b::name("c"), b::name("m"), b::nil()),
            b::input(b::name("c"), x, body),
        );
        let succ = &taus(&p)[0];
        let cs = commitments(succ, &cfg());
        let out = cs
            .iter()
            .find(|c| c.action == Action::Out(Name::global("d")))
            .unwrap();
        match &out.agent {
            Agent::Conc(c) => assert_eq!(c.label, var_label),
            other => panic!("expected concretion, got {other:?}"),
        }
    }

    #[test]
    fn wmf_runs_to_completion() {
        // Example 1: the full Wide Mouthed Frog exchange takes three
        // internal steps and ends with B holding m.
        let src = "
            (new kAS) (new kBS) (
              ((new kAB) cAS<{kAB, new r1}:kAS>. cAB<{m, new r2}:kAB>.0
               | cBS(t). case t of {y}:kBS in cAB(z). case z of {q}:y in done<q>.0)
              | cAS(x). case x of {s}:kAS in cBS<{s, new r3}:kBS>.0
            )";
        let mut state = parse_process(src).unwrap();
        for _ in 0..3 {
            let succs = taus(&state);
            assert!(!succs.is_empty(), "stuck at {state}");
            state = succs[0].clone();
        }
        let cs = commitments(&state, &cfg());
        let done = cs
            .iter()
            .find(|c| c.action == Action::Out(Name::global("done")))
            .expect("B should emit the payload");
        match &done.agent {
            Agent::Conc(c) => assert_eq!(c.value, Value::name("m")),
            other => panic!("expected concretion, got {other:?}"),
        }
    }

    #[test]
    fn reduce_handles_match_restrictions() {
        // Matching values that carry confounders re-wraps the confounders.
        let p = parse_process("[(a, {0, new r}:k) is (a, {0, new r}:k)] c<0>.0").unwrap();
        assert!(reduce(&p, EvalMode::NuSpi).is_none());
        let q = parse_process("[(a, 0) is (a, 0)] c<0>.0").unwrap();
        assert!(reduce(&q, EvalMode::NuSpi).is_some());
    }

    #[test]
    fn value_eq_uses_rc_structural_equality() {
        let a = Arc::new(Value::Zero);
        let b = Arc::new(Value::Zero);
        assert_eq!(a, b);
    }
}
