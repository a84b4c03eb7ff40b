//! Bounded execution of closed processes.
//!
//! The state space of a νSPI process is infinite in general (replication,
//! fresh names), so the explorer is *bounded*: breadth-first over
//! `τ`-successors up to a depth and state budget. Within the bound the
//! enumeration is exhaustive, which is what the dynamic security notions
//! need — carefulness (Definition 3) quantifies over every reachable
//! state's commitments, and public testing (Definition 8) asks whether a
//! barb is `τ`-reachable.
//!
//! States are explored modulo a fragment of structural congruence
//! (Table 1): `|` is flattened and `0` components are dropped, and with a
//! replication budget of at least two a component `Q` beside `!Q` is
//! absorbed (`Q | !Q ≡ !Q`). A ring of replicated forwarders then
//! revisits its states instead of growing a spare copy per step.

use crate::agent::{Action, Agent, Commitment, OutputEvent};
use crate::commit::{commitments, CommitConfig};
use crate::eval::EvalMode;
use crate::rng::Rng;
use nuspi_syntax::{alpha_equivalent, alpha_hash, builder, Part, Process, Symbol};

/// Budgets and mode for bounded exploration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExecConfig {
    /// Evaluation mode (νSPI or classic spi).
    pub mode: EvalMode,
    /// Replication unfolding budget per commitment enumeration.
    pub rep_budget: u32,
    /// Maximum number of `τ` steps from the initial state.
    pub max_depth: usize,
    /// Maximum number of states visited before the search truncates.
    pub max_states: usize,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            mode: EvalMode::NuSpi,
            rep_budget: 2,
            max_depth: 24,
            max_states: 2048,
        }
    }
}

impl ExecConfig {
    fn commit_config(&self) -> CommitConfig {
        CommitConfig {
            mode: self.mode,
            rep_budget: self.rep_budget,
        }
    }
}

/// Statistics of a bounded exploration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExploreStats {
    /// States visited.
    pub states: usize,
    /// Commitments enumerated across all visited states.
    pub transitions: usize,
    /// Whether a budget was exhausted (the search is then a
    /// under-approximation of the reachable space).
    pub truncated: bool,
}

/// Visits every `τ`-reachable state of `p` within the budgets of `cfg`,
/// handing each state's full commitment list to `visit`. Returning `false`
/// from `visit` stops the search early.
///
/// The initial state is visited as given; every successor is first
/// rewritten modulo structural congruence (see the module docs), and
/// states are deduplicated up to α-equivalence of that form (via
/// [`alpha_hash`]). The depth and state budgets keep genuinely infinite
/// spaces (growing data, accumulating fresh names) finite. Each call adds
/// its visited states to the `nuspi-obs` counter
/// `semantics.explore.states`, and a truncated search counts once in
/// `semantics.explore.truncated`.
pub fn explore_tau(
    p: &Process,
    cfg: &ExecConfig,
    visit: impl FnMut(&Process, &[Commitment]) -> bool,
) -> ExploreStats {
    counted(explore(p, cfg, visit, drop))
}

fn counted(stats: ExploreStats) -> ExploreStats {
    nuspi_obs::counter("semantics.explore.states", stats.states as u64);
    if stats.truncated {
        nuspi_obs::counter("semantics.explore.truncated", 1);
    }
    stats
}

/// The one explorer behind [`explore_tau`] and [`tau_closure`]: after
/// `visit` has seen a state's commitments, each `τ` residual goes to the
/// frontier and each visible commitment is moved into `keep`.
fn explore(
    p: &Process,
    cfg: &ExecConfig,
    mut visit: impl FnMut(&Process, &[Commitment]) -> bool,
    mut keep: impl FnMut(Commitment),
) -> ExploreStats {
    let ccfg = cfg.commit_config();
    let absorb = cfg.rep_budget >= 2;
    let mut stats = ExploreStats::default();
    // Deduplicate states up to α-equivalence: binder freshening otherwise
    // makes every revisit look new.
    let mut seen = std::collections::HashSet::new();
    let mut frontier = vec![p.clone()];
    seen.insert(alpha_hash(&normalise(p.clone(), absorb)));
    let mut depth = 0;
    while !frontier.is_empty() {
        if depth > cfg.max_depth {
            stats.truncated = true;
            break;
        }
        let mut next = Vec::new();
        for state in frontier {
            if stats.states >= cfg.max_states {
                stats.truncated = true;
                return stats;
            }
            stats.states += 1;
            let cs = commitments(&state, &ccfg);
            stats.transitions += cs.len();
            if !visit(&state, &cs) {
                return stats;
            }
            for c in cs {
                if c.action != Action::Tau {
                    keep(c);
                    continue;
                }
                let Agent::Proc(q) = c.agent else { continue };
                let q = normalise(q, absorb);
                if seen.insert(alpha_hash(&q)) {
                    next.push(q);
                }
            }
        }
        frontier = next;
        depth += 1;
    }
    stats
}

/// Rewrites a state into the representative of its class under three
/// laws of structural congruence, applied through every `|`, restriction
/// and `hide` that is not under a prefix or guard:
///
/// * `(P | Q) | R ≡ P | (Q | R)`: nested compositions become one
///   right-nested list of components;
/// * `P | 0 ≡ P`: `0` components are dropped;
/// * `Q | !Q ≡ !Q` (rule `Rep`), only with `absorb`: a component
///   α-equivalent to the body `Q` of a sibling `!Q` is dropped, provided
///   `Q` has no replication of its own outside prefixes (see
///   [`absorbable`]).
///
/// Component order is kept, so the rewrite never depends on hashing or
/// interning.
///
/// Absorption is exact only when every enumeration may unfold two copies
/// of `!Q`. One commitment involves at most two prefixes, hence at most
/// two copies of `Q`; with a budget of two, `!Q` alone supplies both, so
/// `S | Q | !Q` and `S | !Q` have the same commitments up to these laws.
/// With a budget of one, `!Q` supplies a single copy, and the spare `Q`
/// is what lets two copies talk to each other.
fn normalise(p: Process, absorb: bool) -> Process {
    match p {
        Process::Par(..) => {
            let mut parts = Vec::new();
            flatten(p, absorb, &mut parts);
            if absorb {
                absorb_copies(&mut parts);
            }
            builder::par_all(parts)
        }
        Process::Restrict { name, body } => Process::Restrict {
            name,
            body: Box::new(normalise(*body, absorb)),
        },
        Process::Hide { name, body } => Process::Hide {
            name,
            body: Box::new(normalise(*body, absorb)),
        },
        other => other,
    }
}

fn flatten(p: Process, absorb: bool, out: &mut Vec<Process>) {
    match p {
        Process::Par(l, r) => {
            flatten(*l, absorb, out);
            flatten(*r, absorb, out);
        }
        Process::Nil => {}
        other => out.push(normalise(other, absorb)),
    }
}

/// Drops every component α-equivalent to the body of an absorbable
/// sibling replication.
fn absorb_copies(parts: &mut Vec<Process>) {
    let bodies: Vec<&Process> = parts
        .iter()
        .filter_map(|c| match c {
            Process::Replicate(q) if absorbable(q) => Some(&**q),
            _ => None,
        })
        .collect();
    if bodies.is_empty() {
        return;
    }
    let spare: Vec<bool> = parts
        .iter()
        .map(|c| bodies.iter().any(|q| alpha_equivalent(c, q)))
        .collect();
    let mut spare = spare.into_iter();
    parts.retain(|_| !spare.next().unwrap_or(false));
}

/// Whether `Q` may be absorbed into `!Q`: its commitments must not depend
/// on the replication budget, i.e. no `!` is reachable from its root
/// without passing a prefix. A copy unfolded from `!Q` enumerates its
/// own replications with one unfolding fewer than a spare `Q` would.
fn absorbable(q: &Process) -> bool {
    match q {
        Process::Replicate(_) => false,
        Process::Output { .. } | Process::Input { .. } => true,
        _ => q.parts().all(|part| match part {
            Part::Child(c, _) => absorbable(c),
            Part::Expr(_) => true,
        }),
    }
}

/// The bounded `τ`-closure of `p`, as the hedged-bisimulation backend
/// plays over it: every visible commitment of every reachable state,
/// moved into `keep` in BFS order (the initial state's first, each
/// state's in enumeration order). A visible move "from `p`" is one of
/// them. Neither the states nor their `τ` residuals are kept; the
/// residuals only feed the search. Counted like [`explore_tau`].
pub fn tau_closure(p: &Process, cfg: &ExecConfig, keep: impl FnMut(Commitment)) -> ExploreStats {
    counted(explore(p, cfg, |_, _| true, keep))
}

/// All `τ`-successors of a single state.
pub fn tau_successors(p: &Process, cfg: &ExecConfig) -> Vec<Process> {
    commitments(p, &cfg.commit_config())
        .into_iter()
        .filter_map(|c| match (c.action, c.agent) {
            (Action::Tau, Agent::Proc(q)) => Some(q),
            _ => None,
        })
        .collect()
}

/// A barb `β`: readiness to communicate on a canonical channel, in the
/// given direction (the paper's `m` and `m̄`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Barb {
    /// Ready to *receive* on the channel (`m`).
    In(Symbol),
    /// Ready to *send* on the channel (`m̄`).
    Out(Symbol),
}

impl Barb {
    /// Whether a commitment's action exhibits this barb.
    pub fn matches(self, action: Action) -> bool {
        match (self, action) {
            (Barb::In(s), Action::In(m)) => m.canonical() == s,
            (Barb::Out(s), Action::Out(m)) => m.canonical() == s,
            _ => false,
        }
    }
}

/// Definition 8: `P` passes the public test `(Q, β)` iff
/// `(P | Q) —τ→ … —τ→ Qₙ —β→ A` for some `n ≥ 0`.
///
/// The search is bounded by `cfg`; a `false` answer within generous budgets
/// is evidence, not proof, of failure — exactly the approximation the
/// reproduction's DESIGN.md documents for testing equivalence.
pub fn passes_test(p: &Process, test: &Process, barb: Barb, cfg: &ExecConfig) -> bool {
    let composed = builder::par(p.clone(), test.clone());
    let mut found = false;
    explore_tau(&composed, cfg, |_state, cs| {
        if cs.iter().any(|c| barb.matches(c.action)) {
            found = true;
            return false;
        }
        true
    });
    found
}

/// Enumerates every maximal `τ`-trace of `p` up to `max_depth` steps,
/// deduplicating states up to α-equivalence along each path. A trace is
/// *maximal* when its final state offers no `τ` (or the depth bound was
/// hit). The trace count is exponential in the interleaving; `max_traces`
/// caps the enumeration.
pub fn all_traces(p: &Process, cfg: &ExecConfig, max_traces: usize) -> Vec<Trace> {
    let ccfg = cfg.commit_config();
    let mut out = Vec::new();
    let mut stack = vec![(p.clone(), Vec::new(), Vec::<u64>::new())];
    while let Some((state, steps, path)) = stack.pop() {
        if out.len() >= max_traces {
            break;
        }
        let taus: Vec<(TraceStep, Process)> = commitments(&state, &ccfg)
            .into_iter()
            .filter_map(|c| match (c.action, c.agent) {
                (Action::Tau, Agent::Proc(q)) => Some((
                    TraceStep {
                        action: Action::Tau,
                        outputs: c.outputs,
                    },
                    q,
                )),
                _ => None,
            })
            .collect();
        if taus.is_empty() || steps.len() >= cfg.max_depth {
            out.push(Trace {
                steps,
                end: Some(state),
            });
            continue;
        }
        for (step, q) in taus {
            let h = nuspi_syntax::alpha_hash(&q);
            if path.contains(&h) {
                continue; // cycle along this path
            }
            let mut steps2 = steps.clone();
            steps2.push(step);
            let mut path2 = path.clone();
            path2.push(h);
            stack.push((q, steps2, path2));
        }
    }
    out
}

/// One step of a recorded random run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceStep {
    /// The action taken (always `τ` for closed-system runs).
    pub action: Action,
    /// Output premises used in the step's derivation.
    pub outputs: Vec<OutputEvent>,
}

/// A recorded execution.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Trace {
    /// The steps, in execution order.
    pub steps: Vec<TraceStep>,
    /// The final state.
    pub end: Option<Process>,
}

/// Runs `p` for up to `max_steps` random `τ` steps, recording every step's
/// output premises. Stops early when no `τ` is enabled.
pub fn run_random(p: &Process, max_steps: usize, cfg: &ExecConfig, rng: &mut impl Rng) -> Trace {
    let ccfg = cfg.commit_config();
    let mut state = p.clone();
    let mut trace = Trace::default();
    for _ in 0..max_steps {
        let taus: Vec<Commitment> = commitments(&state, &ccfg)
            .into_iter()
            .filter(|c| c.action == Action::Tau)
            .collect();
        if taus.is_empty() {
            break;
        }
        let pick = rng.gen_range(0..taus.len());
        let c = taus.into_iter().nth(pick).expect("index in range");
        trace.steps.push(TraceStep {
            action: c.action,
            outputs: c.outputs,
        });
        match c.agent {
            Agent::Proc(q) => state = q,
            other => panic!("τ commitment with non-process agent {other:?}"),
        }
    }
    trace.end = Some(state);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use nuspi_syntax::parse_process;

    fn cfg() -> ExecConfig {
        ExecConfig::default()
    }

    #[test]
    fn explore_visits_initial_state() {
        let p = parse_process("0").unwrap();
        let stats = explore_tau(&p, &cfg(), |_, _| true);
        assert_eq!(stats.states, 1);
        assert_eq!(stats.transitions, 0);
        assert!(!stats.truncated);
    }

    #[test]
    fn explore_follows_tau_chain() {
        let p = parse_process("a<0>.b<0>.0 | a(x).b(y).0").unwrap();
        let mut states = 0;
        explore_tau(&p, &cfg(), |_, _| {
            states += 1;
            true
        });
        assert!(states >= 3, "initial, after a, after b; got {states}");
    }

    #[test]
    fn explore_stops_when_visitor_says_so() {
        let p = parse_process("a<0>.0 | a(x).0").unwrap();
        let stats = explore_tau(&p, &cfg(), |_, _| false);
        assert_eq!(stats.states, 1);
    }

    #[test]
    fn state_budget_truncates() {
        let p = parse_process("!(a<0>.0 | a(x).0)").unwrap();
        let tight = ExecConfig {
            max_states: 3,
            ..cfg()
        };
        let stats = explore_tau(&p, &tight, |_, _| true);
        assert!(stats.truncated);
        assert!(stats.states <= 3);
    }

    #[test]
    fn a_ring_of_replicated_forwarders_revisits_its_states() {
        // Two forwarders pass one seed round a ring forever. Up to α each
        // step leaves a spare unfolded copy behind, so no state repeats;
        // modulo `Q | !Q ≡ !Q` the seed's second lap revisits the first.
        let p = parse_process(
            "(new a) (new b) (new s) ((!a(x).b<x>.0 | 0) | ((!b(y).a<y>.0 | 0) | a<s>.0))",
        )
        .unwrap();
        let stats = explore_tau(&p, &cfg(), |_, _| true);
        assert!(!stats.truncated, "{stats:?}");
        assert!(stats.states <= 4, "{stats:?}");
    }

    #[test]
    fn normalise_flattens_drops_nil_and_absorbs_spare_copies() {
        let shape =
            |src: &str, absorb: bool| normalise(parse_process(src).unwrap(), absorb).to_string();
        assert_eq!(
            shape("(a<m>.0 | 0) | (0 | (b<m>.0 | 0))", false),
            "a<m>.0 | b<m>.0"
        );
        assert_eq!(shape("(new n) ((0 | n<m>.0) | 0)", false), "(new n) n<m>.0");
        assert_eq!(shape("0 | 0", true), "0");
        let server = "(a(x).b<x>.0 | !a(x).b<x>.0) | c<m>.0";
        assert_eq!(shape(server, true), "!a(x).b<x>.0 | c<m>.0");
        assert_eq!(
            shape(server, false),
            "a(x).b<x>.0 | (!a(x).b<x>.0 | c<m>.0)"
        );
        // A body with a replication of its own is never absorbed: a copy
        // unfolded from the outer `!` gets a smaller inner budget.
        assert_eq!(shape("!a(x).0 | !!a(x).0", true), "!a(x).0 | !!a(x).0");
    }

    #[test]
    fn tau_closure_keeps_exactly_the_visible_commitments_in_bfs_order() {
        let p = parse_process("a<0>.b<0>.0 | a(x).c(y).0 | d<m>.0").unwrap();
        let mut visible = Vec::new();
        let walked = explore_tau(&p, &cfg(), |_, cs| {
            visible.extend(cs.iter().filter(|c| c.action != Action::Tau).cloned());
            true
        });
        let mut kept = Vec::new();
        let stats = tau_closure(&p, &cfg(), |c| kept.push(c));
        assert_eq!(stats, walked);
        assert_eq!(kept, visible);
        assert!(kept.len() >= 4, "{kept:?}");
    }

    #[test]
    fn tau_successors_of_prefix_is_empty() {
        let p = parse_process("c<0>.0").unwrap();
        assert!(tau_successors(&p, &cfg()).is_empty());
    }

    #[test]
    fn barb_matching() {
        let c = Symbol::intern("c");
        let m = nuspi_syntax::Name::global("c");
        assert!(Barb::Out(c).matches(Action::Out(m)));
        assert!(!Barb::Out(c).matches(Action::In(m)));
        assert!(Barb::In(c).matches(Action::In(m)));
        assert!(!Barb::In(c).matches(Action::Tau));
        // Canonical matching: a freshened channel still exhibits the barb.
        assert!(Barb::Out(c).matches(Action::Out(m.freshen())));
    }

    #[test]
    fn passes_direct_barb_test() {
        let p = parse_process("c<0>.0").unwrap();
        let idle = parse_process("0").unwrap();
        assert!(passes_test(
            &p,
            &idle,
            Barb::Out(Symbol::intern("c")),
            &cfg()
        ));
        assert!(!passes_test(
            &p,
            &idle,
            Barb::Out(Symbol::intern("d")),
            &cfg()
        ));
    }

    #[test]
    fn passes_test_after_interaction_with_tester() {
        // P answers on d only after receiving on c; the test supplies it.
        let p = parse_process("c(x).d<x>.0").unwrap();
        let q = parse_process("c<0>.0").unwrap();
        assert!(passes_test(&p, &q, Barb::Out(Symbol::intern("d")), &cfg()));
        let idle = parse_process("0").unwrap();
        assert!(!passes_test(
            &p,
            &idle,
            Barb::Out(Symbol::intern("d")),
            &cfg()
        ));
    }

    #[test]
    fn random_run_is_reproducible() {
        let p = parse_process("a<0>.0 | a(x).b<x>.0 | b(y).0").unwrap();
        let mut r1 = SplitMix64::seed_from_u64(7);
        let mut r2 = SplitMix64::seed_from_u64(7);
        let t1 = run_random(&p, 8, &cfg(), &mut r1);
        let t2 = run_random(&p, 8, &cfg(), &mut r2);
        assert_eq!(t1.steps.len(), t2.steps.len());
    }

    #[test]
    fn random_run_records_outputs() {
        let p = parse_process("a<m>.0 | a(x).0").unwrap();
        let mut rng = SplitMix64::seed_from_u64(1);
        let t = run_random(&p, 4, &cfg(), &mut rng);
        assert_eq!(t.steps.len(), 1);
        assert_eq!(t.steps[0].outputs.len(), 1);
        assert_eq!(
            t.steps[0].outputs[0].channel,
            nuspi_syntax::Name::global("a")
        );
    }

    #[test]
    fn random_run_stops_when_stuck() {
        let p = parse_process("c<0>.0").unwrap();
        let mut rng = SplitMix64::seed_from_u64(3);
        let t = run_random(&p, 10, &cfg(), &mut rng);
        assert!(t.steps.is_empty());
        assert_eq!(t.end, Some(p));
    }

    #[test]
    fn all_traces_of_inert_process_is_the_empty_trace() {
        let p = parse_process("c<0>.0").unwrap();
        let ts = all_traces(&p, &cfg(), 100);
        assert_eq!(ts.len(), 1);
        assert!(ts[0].steps.is_empty());
    }

    #[test]
    fn all_traces_enumerates_interleavings() {
        // Two independent exchanges: two interleavings.
        let p = parse_process("a<0>.0 | a(x).0 | b<0>.0 | b(y).0").unwrap();
        let ts = all_traces(&p, &cfg(), 100);
        assert_eq!(ts.len(), 2);
        assert!(ts.iter().all(|t| t.steps.len() == 2));
    }

    #[test]
    fn all_traces_respects_the_cap() {
        let p = parse_process("a<0>.0 | a(x).0 | b<0>.0 | b(y).0 | c<0>.0 | c(z).0").unwrap();
        let ts = all_traces(&p, &cfg(), 3);
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn all_traces_agree_with_explorer_on_outputs() {
        // Every output event seen by the explorer appears in some trace
        // and vice versa (same canonical channels).
        let src = "(new s) (a<s>.0 | a(x). b<x>.0 | b(y).0)";
        let p = parse_process(src).unwrap();
        let mut explorer_chans = std::collections::BTreeSet::new();
        explore_tau(&p, &cfg(), |_, cs| {
            for c in cs {
                for o in &c.outputs {
                    explorer_chans.insert(o.channel.canonical());
                }
            }
            true
        });
        let mut trace_chans = std::collections::BTreeSet::new();
        for t in all_traces(&p, &cfg(), 100) {
            for s in &t.steps {
                for o in &s.outputs {
                    trace_chans.insert(o.channel.canonical());
                }
            }
        }
        assert_eq!(explorer_chans, trace_chans);
    }

    #[test]
    fn wmf_explores_fully() {
        let src = "
            (new kAS) (new kBS) (
              ((new kAB) cAS<{kAB, new r1}:kAS>. cAB<{m, new r2}:kAB>.0
               | cBS(t). case t of {y}:kBS in cAB(z). case z of {q}:y in done<q>.0)
              | cAS(x). case x of {s}:kAS in cBS<{s, new r3}:kBS>.0
            )";
        let p = parse_process(src).unwrap();
        let mut saw_done = false;
        let stats = explore_tau(&p, &cfg(), |_, cs| {
            if cs
                .iter()
                .any(|c| Barb::Out(Symbol::intern("done")).matches(c.action))
            {
                saw_done = true;
            }
            true
        });
        assert!(saw_done, "protocol must complete");
        assert!(!stats.truncated);
    }
}
