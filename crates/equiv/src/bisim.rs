//! The bounded hedged-bisimulation game.
//!
//! [`check`] plays the attacker against both processes at once over the
//! commitment LTS, weak on `τ`: a game state is a process pair plus a
//! [`Hedge`]. Each round the attacker picks a side, a `τ`-reachable
//! state, and a visible commitment on a channel the hedge knows (for
//! inputs, also a correspondingly-synthesisable message pair to inject);
//! the defender replies with any corresponding commitment from the other
//! side's `τ`-closure. The attacker wins a move when *every* defender
//! reply fails — the observed value pair is [`Inconsistency`]-distinct,
//! or play from the successor pair is already won.
//!
//! ## Soundness discipline
//!
//! Budgets truncate the game in both directions, and each direction is
//! accounted separately so the final verdict is honest:
//!
//! * `Bisimilar` is reported only when **no** budget was hit anywhere:
//!   the game tree was explored exhaustively and the attacker never wins.
//! * `Distinguished` is derived only from moves whose *defender*
//!   enumeration was complete (the defender's `τ`-closure was not
//!   truncated); every hedge inconsistency is a concrete experiment, so
//!   the trace is a genuine attacker strategy.
//! * Anything else is `Unknown` with the sorted set of exhausted budgets.
//!
//! The search iteratively deepens on game depth, so reported
//! distinguishing traces are shortest-first and independent of budget
//! slack. The memo key of a position is one structural walk over (left,
//! right, hedge) that hashes the tokens their rendering prints, fresh
//! indices renumbered in order of first occurrence (`key.rs`) — so it is
//! α-invariant across runs and worker counts, and verdicts, play counts,
//! and traces are bit-identical at any parallelism.
//!
//! A play pays for its position, not its printout: a leaf (no fuel
//! left) only asks whether any move exists, and a trace line stays data
//! (`Line`) until a trace that wins needs its text (DESIGN.md §14).

use crate::hedge::{Hedge, Inconsistency};
use crate::key::state_key;
use nuspi_semantics::{tau_closure, Action, Agent, Commitment, EvalMode, ExecConfig};
use nuspi_syntax::{builder, canonical_digest, Name, Process, Symbol, Value};
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

/// Budgets of the bounded game.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EquivConfig {
    /// Maximum visible-move rounds (iterative-deepening ceiling).
    pub game_depth: usize,
    /// Total game-position budget across all deepening rounds.
    pub max_plays: usize,
    /// `τ`-closure depth per position.
    pub tau_depth: usize,
    /// `τ`-closure state budget per position.
    pub tau_states: usize,
    /// Injected message-pair candidates per input move.
    pub max_injections: usize,
    /// Replication unfolding budget of the commitment semantics.
    pub rep_budget: u32,
}

impl Default for EquivConfig {
    fn default() -> EquivConfig {
        EquivConfig {
            game_depth: 8,
            max_plays: 20_000,
            tau_depth: 12,
            tau_states: 160,
            max_injections: 6,
            rep_budget: 1,
        }
    }
}

impl EquivConfig {
    fn exec(&self) -> ExecConfig {
        ExecConfig {
            mode: EvalMode::NuSpi,
            rep_budget: self.rep_budget,
            max_depth: self.tau_depth,
            max_states: self.tau_states,
        }
    }
}

/// The outcome of a bounded equivalence check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The game tree was exhausted and the attacker never wins: the
    /// processes are hedged-bisimilar within the model.
    Bisimilar,
    /// The attacker wins: `trace` is its strategy, one rendered step per
    /// line, ending in the experiment that tells the sides apart.
    Distinguished {
        /// The distinguishing strategy, rendered canonically.
        trace: Vec<String>,
    },
    /// A budget was exhausted before either answer: `budgets` is the
    /// sorted list of budget names that were hit.
    Unknown {
        /// Exhausted budget names (`"depth"`, `"injections"`, `"plays"`,
        /// `"tau"`).
        budgets: Vec<String>,
    },
}

impl Verdict {
    /// The wire tag: `"bisimilar"`, `"distinguished"`, or `"unknown"`.
    pub fn tag(&self) -> &'static str {
        match self {
            Verdict::Bisimilar => "bisimilar",
            Verdict::Distinguished { .. } => "distinguished",
            Verdict::Unknown { .. } => "unknown",
        }
    }
}

/// A verdict plus exploration meters (deterministic at any worker count).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EquivReport {
    /// The verdict.
    pub verdict: Verdict,
    /// Game positions examined across all deepening rounds.
    pub plays: usize,
    /// The deepening round the search ended on (0 = digest fast path).
    pub depth: usize,
}

/// Checks `left ∼ right` under a hedge seeding each name in `public` as
/// known to the attacker on both sides.
pub fn check(left: &Process, right: &Process, public: &[Symbol], cfg: &EquivConfig) -> EquivReport {
    let hedge = Hedge::with_public_names(&sorted_unique(public));
    check_with_hedge(left, right, hedge, cfg)
}

/// Checks `left ∼ right` from an explicit initial hedge.
pub fn check_with_hedge(
    left: &Process,
    right: &Process,
    hedge: Hedge,
    cfg: &EquivConfig,
) -> EquivReport {
    let _span = nuspi_obs::span!("equiv.check");
    let identity = |(l, r): &(Rc<Value>, Rc<Value>)| l == r;
    if hedge.pairs().iter().chain(hedge.replays()).all(identity)
        && canonical_digest(left) == canonical_digest(right)
    {
        // α-equivalent processes are bisimilar under a hedge that pairs
        // every value with itself. Under any other hedge the attacker
        // may still tell them apart (`c<a>.0` against itself, once it
        // holds the pair `(a, b)`), so the game is played.
        count_verdict("bisimilar");
        return EquivReport {
            verdict: Verdict::Bisimilar,
            plays: 0,
            depth: 0,
        };
    }
    let mut game = Game::new(*cfg);
    let mut depth = 0;
    let mut out_of_plays = false;
    let mut report_verdict = None;
    for fuel in 1..=cfg.game_depth {
        depth = fuel;
        game.depth_cutoff = false;
        game.memo.clear();
        match game.play(left, right, &hedge, fuel) {
            Outcome::Distinguished(trace) => {
                report_verdict = Some(Verdict::Distinguished { trace });
                break;
            }
            Outcome::NoDistinction => {
                if game.plays >= cfg.max_plays {
                    out_of_plays = true;
                    break;
                }
                if !game.depth_cutoff && game.exhausted.is_empty() {
                    report_verdict = Some(Verdict::Bisimilar);
                    break;
                }
            }
        }
    }
    let verdict = report_verdict.unwrap_or_else(|| {
        let mut budgets = game.exhausted.clone();
        if out_of_plays {
            budgets.insert("plays");
        }
        if game.depth_cutoff {
            budgets.insert("depth");
        }
        Verdict::Unknown {
            budgets: budgets.into_iter().map(str::to_owned).collect(),
        }
    });
    count_verdict(verdict.tag());
    if nuspi_obs::enabled() {
        nuspi_obs::counter("equiv.plays", game.plays as u64);
        nuspi_obs::counter("equiv.positions", game.positions as u64);
        if let Verdict::Unknown { budgets } = &verdict {
            for b in budgets {
                nuspi_obs::counter(&format!("equiv.budget.{b}"), 1);
            }
        }
    }
    EquivReport {
        verdict,
        plays: game.plays,
        depth,
    }
}

fn count_verdict(tag: &'static str) {
    if nuspi_obs::enabled() {
        match tag {
            "bisimilar" => nuspi_obs::counter("equiv.verdict.bisimilar", 1),
            "distinguished" => nuspi_obs::counter("equiv.verdict.distinguished", 1),
            _ => nuspi_obs::counter("equiv.verdict.unknown", 1),
        }
    }
}

fn sorted_unique(names: &[Symbol]) -> Vec<Symbol> {
    let mut v: Vec<Symbol> = names.to_vec();
    v.sort_by_key(|s| s.as_str().to_owned());
    v.dedup();
    v
}

/// Which process the attacker acts on this move.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Side {
    Lhs,
    Rhs,
}

impl Side {
    fn name(self) -> &'static str {
        match self {
            Side::Lhs => "lhs",
            Side::Rhs => "rhs",
        }
    }

    fn other(self) -> &'static str {
        match self {
            Side::Lhs => "rhs",
            Side::Rhs => "lhs",
        }
    }
}

enum Outcome {
    /// The attacker wins from here; the trace is its strategy.
    Distinguished(Vec<String>),
    /// No winning move found (exact only if no budget flag was raised).
    NoDistinction,
}

/// One line of a distinguishing trace, kept as data: its text is built
/// only when the line joins a trace that wins.
enum Line {
    /// The attacker watches `side` emit the value on the channel.
    Emit(Side, Rc<Value>, Name),
    /// The attacker injects the first value on its side's channel and
    /// the second on the defender's.
    Inject(Rc<Value>, Rc<Value>, Name),
    /// The defender's reply to `side`'s output, the value on the
    /// channel, makes the hedge inconsistent.
    Replies(Side, Rc<Value>, Name, Inconsistency),
    /// The defender has no output on the channel to answer `side`'s.
    NoOutput(Side, Name),
    /// The defender has no input on the channel to answer `side`'s.
    NoInput(Side, Name),
}

impl Line {
    fn render(&self) -> String {
        match self {
            Line::Emit(side, v, ch) => format!(
                "{} emits {} on {}",
                side.name(),
                v.canonicalize(),
                ch.canonical().as_str()
            ),
            Line::Inject(own, def, ch) => format!(
                "inject {} / {} on {}",
                own.canonicalize(),
                def.canonicalize(),
                ch.canonical().as_str()
            ),
            Line::Replies(side, v, co, e) => format!(
                "{} replies {} on {}: {}",
                side.other(),
                v.canonicalize(),
                co.canonical().as_str(),
                e
            ),
            Line::NoOutput(side, co) => format!(
                "no corresponding output on {} from {}",
                co.canonical().as_str(),
                side.other()
            ),
            Line::NoInput(side, co) => format!(
                "no corresponding input on {} from {}",
                co.canonical().as_str(),
                side.other()
            ),
        }
    }
}

/// One attacker move, with the defender's candidate replies.
struct Move {
    /// The attacker's step.
    step: Line,
    /// `Err`: the move wins immediately (no consistent defender reply);
    /// the line is the experiment. `Ok`: successor pairs to recurse
    /// into, one per defender reply, each `(left', right', hedge')`.
    replies: Result<Vec<(Process, Process, Hedge)>, Line>,
    /// Whether the defender's `τ`-closure was truncated — if so, the
    /// move can never soundly conclude `Distinguished`.
    defender_complete: bool,
}

type Closure = Rc<(Vec<(Process, Vec<Commitment>)>, bool)>;

struct Game {
    cfg: EquivConfig,
    plays: usize,
    /// Plays that missed the round memo: the positions examined.
    positions: usize,
    /// Budgets hit anywhere in the search ("tau", "injections").
    exhausted: BTreeSet<&'static str>,
    /// Whether the current deepening round hit its depth cutoff with
    /// visible moves still available.
    depth_cutoff: bool,
    /// Round-local memo: position key → settled outcome.
    memo: HashMap<u128, MemoEntry>,
    /// `τ`-closures by `alpha_hash`, shared across rounds.
    closures: HashMap<u64, Closure>,
    /// Scratch space of the memo-key walk.
    fresh: Vec<u32>,
}

#[derive(Clone)]
enum MemoEntry {
    /// On the current stack: assume no distinction (coinduction).
    InProgress,
    NoDistinction,
    Distinguished(Vec<String>),
}

impl Game {
    fn new(cfg: EquivConfig) -> Game {
        Game {
            cfg,
            plays: 0,
            positions: 0,
            exhausted: BTreeSet::new(),
            depth_cutoff: false,
            memo: HashMap::new(),
            closures: HashMap::new(),
            fresh: Vec::new(),
        }
    }

    fn closure(&mut self, p: &Process) -> Closure {
        let h = nuspi_syntax::alpha_hash(p);
        if let Some(c) = self.closures.get(&h) {
            return Rc::clone(c);
        }
        let mut states = Vec::new();
        let stats = tau_closure(p, &self.cfg.exec(), &mut states);
        let c: Closure = Rc::new((states, stats.truncated));
        self.closures.insert(h, Rc::clone(&c));
        c
    }

    fn play(&mut self, left: &Process, right: &Process, hedge: &Hedge, fuel: usize) -> Outcome {
        if self.plays >= self.cfg.max_plays {
            return Outcome::NoDistinction;
        }
        self.plays += 1;
        let key = state_key(left, right, hedge, &mut self.fresh);
        match self.memo.get(&key) {
            Some(MemoEntry::InProgress) | Some(MemoEntry::NoDistinction) => {
                return Outcome::NoDistinction
            }
            Some(MemoEntry::Distinguished(t)) => return Outcome::Distinguished(t.clone()),
            None => {}
        }
        self.positions += 1;
        self.memo.insert(key, MemoEntry::InProgress);

        let lc = self.closure(left);
        let rc = self.closure(right);
        if lc.1 || rc.1 {
            self.exhausted.insert("tau");
        }
        let outcome = if fuel == 0 {
            if self.any_move(&lc, &rc, hedge) {
                self.depth_cutoff = true;
            }
            Outcome::NoDistinction
        } else {
            let moves = self.moves(&lc, &rc, hedge);
            self.evaluate(moves, fuel)
        };
        let entry = match &outcome {
            Outcome::Distinguished(t) => MemoEntry::Distinguished(t.clone()),
            Outcome::NoDistinction => MemoEntry::NoDistinction,
        };
        self.memo.insert(key, entry);
        outcome
    }

    /// Evaluates the moves: immediate wins first (a move whose every
    /// defender reply is already hedge-inconsistent), then recursion.
    /// This ordering finds shallow experiments before burning the play
    /// budget on deep consistent branches.
    fn evaluate(&mut self, moves: Vec<Move>, fuel: usize) -> Outcome {
        for m in &moves {
            if let Err(experiment) = &m.replies {
                if m.defender_complete {
                    return Outcome::Distinguished(vec![m.step.render(), experiment.render()]);
                }
                self.exhausted.insert("tau");
            }
        }
        for m in moves {
            let Ok(replies) = m.replies else { continue };
            let mut all_refuted = true;
            let mut first_failure: Option<Vec<String>> = None;
            for (l2, r2, h2) in replies {
                match self.play(&l2, &r2, &h2, fuel - 1) {
                    Outcome::NoDistinction => {
                        all_refuted = false;
                        break;
                    }
                    Outcome::Distinguished(t) => {
                        if first_failure.is_none() {
                            first_failure = Some(t);
                        }
                    }
                }
            }
            if all_refuted {
                if let Some(tail) = first_failure {
                    if m.defender_complete {
                        let mut trace = vec![m.step.render()];
                        trace.extend(tail);
                        return Outcome::Distinguished(trace);
                    }
                    self.exhausted.insert("tau");
                }
                // `first_failure == None` means the defender had no
                // replies at all — already handled as an immediate win
                // (or a truncation) in the first pass.
            }
        }
        Outcome::NoDistinction
    }

    /// Whether [`Game::moves`] would list any move, without building
    /// one. An output on a channel the hedge maps is always a move, and
    /// an input on one gets at least the `(0, 0)` injection. The only
    /// effect `moves` has on the game is the `injections` budget flag,
    /// which depends on the hedge and the side alone: it is raised here
    /// for exactly the sides `moves` would raise it for.
    fn any_move(&mut self, lc: &Closure, rc: &Closure, hedge: &Hedge) -> bool {
        let mut any = false;
        for (side, att) in [(Side::Lhs, lc), (Side::Rhs, rc)] {
            let mut inputs = false;
            for c in att.0.iter().flat_map(|(_, cs)| cs) {
                match (&c.action, &c.agent) {
                    (Action::Out(ch), Agent::Conc(_)) if !any => {
                        any = self.co_channel(hedge, side, *ch).is_some();
                    }
                    (Action::In(ch), Agent::Abs(_)) if !inputs => {
                        inputs = self.co_channel(hedge, side, *ch).is_some();
                    }
                    _ => {}
                }
                if any && inputs {
                    break;
                }
            }
            if inputs {
                self.injections(hedge, side);
                any = true;
            }
        }
        any
    }

    /// Enumerates the attacker's moves: outputs (passive observation)
    /// before inputs (active injection), each side in turn, closure
    /// states in BFS order — all deterministic.
    fn moves(&mut self, lc: &Closure, rc: &Closure, hedge: &Hedge) -> Vec<Move> {
        let mut out = Vec::new();
        for side in [Side::Lhs, Side::Rhs] {
            let (att, def) = match side {
                Side::Lhs => (lc, rc),
                Side::Rhs => (rc, lc),
            };
            for (_, cs) in &att.0 {
                for c in cs {
                    if let (Action::Out(ch), Agent::Conc(conc)) = (&c.action, &c.agent) {
                        if let Some(co) = self.co_channel(hedge, side, *ch) {
                            out.push(self.out_move(side, *ch, co, conc, def, hedge));
                        }
                    }
                }
            }
        }
        for side in [Side::Lhs, Side::Rhs] {
            let (att, def) = match side {
                Side::Lhs => (lc, rc),
                Side::Rhs => (rc, lc),
            };
            for (_, cs) in &att.0 {
                for c in cs {
                    if let (Action::In(ch), Agent::Abs(abs)) = (&c.action, &c.agent) {
                        if let Some(co) = self.co_channel(hedge, side, *ch) {
                            for (inj_own, inj_def) in self.injections(hedge, side) {
                                let cont = receive(&abs.restricted, abs.var, &abs.body, &inj_own);
                                out.push(in_move(
                                    side, *ch, co, inj_own, inj_def, cont, def, hedge,
                                ));
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn co_channel(&self, hedge: &Hedge, side: Side, ch: Name) -> Option<Name> {
        match side {
            Side::Lhs => hedge.co_channel_left(ch),
            Side::Rhs => hedge.co_channel_right(ch),
        }
    }

    /// An output observation: the attacker reads `conc` on `ch`; the
    /// defender must emit on `co` with a correspondingly consistent value.
    fn out_move(
        &mut self,
        side: Side,
        ch: Name,
        co: Name,
        conc: &nuspi_semantics::Concretion,
        def: &Closure,
        hedge: &Hedge,
    ) -> Move {
        let mut replies = Vec::new();
        let mut experiment = None;
        for (_, cs) in &def.0 {
            for c in cs {
                let (Action::Out(dch), Agent::Conc(dconc)) = (&c.action, &c.agent) else {
                    continue;
                };
                if *dch != co {
                    continue;
                }
                let (lv, rv, lp, rp) = match side {
                    Side::Lhs => (&conc.value, &dconc.value, &conc.body, &dconc.body),
                    Side::Rhs => (&dconc.value, &conc.value, &dconc.body, &conc.body),
                };
                match hedge.learn(lv.clone(), rv.clone()) {
                    Ok(h2) => replies.push((lp.clone(), rp.clone(), h2)),
                    Err(e) => {
                        if experiment.is_none() {
                            experiment = Some(Line::Replies(side, dconc.value.clone(), co, e));
                        }
                    }
                }
            }
        }
        let defender_complete = !def.1;
        let replies = if replies.is_empty() {
            Err(experiment.unwrap_or(Line::NoOutput(side, co)))
        } else {
            Ok(replies)
        };
        Move {
            step: Line::Emit(side, conc.value.clone(), ch),
            replies,
            defender_complete,
        }
    }

    /// The message pairs the attacker can inject: `(0, 0)`, then whole
    /// observed messages (replays — the protocol attacker's key move:
    /// reflection, re-forwarding a starved message), then every
    /// irreducible hedge pair, capped by the injection budget.
    fn injections(&mut self, hedge: &Hedge, side: Side) -> Vec<(Rc<Value>, Rc<Value>)> {
        let mut out = vec![(Value::zero(), Value::zero())];
        let candidates = hedge.replays().iter().chain(hedge.pairs());
        for (l, r) in candidates {
            let oriented = match side {
                Side::Lhs => (l.clone(), r.clone()),
                Side::Rhs => (r.clone(), l.clone()),
            };
            if out.contains(&oriented) {
                continue;
            }
            if out.len() >= self.cfg.max_injections {
                self.exhausted.insert("injections");
                break;
            }
            out.push(oriented);
        }
        out
    }
}

/// The continuation of an input: re-wrap the abstraction's extruded
/// restrictions around the instantiated body.
fn receive(
    restricted: &[Name],
    var: nuspi_syntax::Var,
    body: &Process,
    value: &Rc<Value>,
) -> Process {
    builder::restrict_all(restricted.iter().copied(), body.subst(var, value))
}

/// An injection: the attacker sends `inj_own` on its side's `ch`
/// (continuing as `cont`) and `inj_def` on the defender's `co`.
#[allow(clippy::too_many_arguments)]
fn in_move(
    side: Side,
    ch: Name,
    co: Name,
    inj_own: Rc<Value>,
    inj_def: Rc<Value>,
    cont: Process,
    def: &Closure,
    hedge: &Hedge,
) -> Move {
    let mut replies = Vec::new();
    for (_, cs) in &def.0 {
        for c in cs {
            let (Action::In(dch), Agent::Abs(dabs)) = (&c.action, &c.agent) else {
                continue;
            };
            if *dch != co {
                continue;
            }
            let dcont = receive(&dabs.restricted, dabs.var, &dabs.body, &inj_def);
            let (lp, rp) = match side {
                Side::Lhs => (cont.clone(), dcont),
                Side::Rhs => (dcont, cont.clone()),
            };
            replies.push((lp, rp, hedge.clone()));
        }
    }
    let defender_complete = !def.1;
    let replies = if replies.is_empty() {
        Err(Line::NoInput(side, co))
    } else {
        Ok(replies)
    };
    Move {
        step: Line::Inject(inj_own, inj_def, ch),
        replies,
        defender_complete,
    }
}

#[cfg(test)]
mod key_wall;

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_syntax::parse_process;

    fn syms(names: &[&str]) -> Vec<Symbol> {
        names.iter().map(|n| Symbol::intern(n)).collect()
    }

    fn run(l: &str, r: &str, public: &[&str]) -> EquivReport {
        let lp = parse_process(l).unwrap();
        let rp = parse_process(r).unwrap();
        check(&lp, &rp, &syms(public), &EquivConfig::default())
    }

    #[test]
    fn digest_fast_path() {
        let rep = run("c<0>.0", "c<0>.0", &["c"]);
        assert_eq!(rep.verdict, Verdict::Bisimilar);
        assert_eq!(rep.plays, 0);
    }

    #[test]
    fn commuted_parallel_is_bisimilar_exactly() {
        let rep = run("a<0>.0 | b<0>.0", "b<0>.0 | a<0>.0", &["a", "b"]);
        assert_eq!(rep.verdict, Verdict::Bisimilar, "{rep:?}");
        assert!(rep.plays > 0, "not the digest fast path");
    }

    #[test]
    fn distinct_clear_payloads_are_distinguished() {
        let rep = run("c<a>.0", "c<b>.0", &["c", "a", "b"]);
        let Verdict::Distinguished { trace } = &rep.verdict else {
            panic!("{rep:?}");
        };
        assert!(trace[0].contains("emits"), "{trace:?}");
        assert!(trace.last().unwrap().contains("injectivity"), "{trace:?}");
    }

    #[test]
    fn missing_output_is_distinguished() {
        let rep = run("c<0>.0", "0", &["c"]);
        let Verdict::Distinguished { trace } = &rep.verdict else {
            panic!("{rep:?}");
        };
        assert!(trace.iter().any(|s| s.contains("no corresponding output")));
    }

    #[test]
    fn restricted_fresh_names_are_indistinguishable() {
        // Both emit a fresh restricted name: the attacker learns a pair
        // of distinct-looking names, which is perfectly consistent.
        let rep = run("(new n) c<n>.0", "(new m2) c<m2>.0", &["c"]);
        assert_eq!(rep.verdict, Verdict::Bisimilar, "{rep:?}");
    }

    #[test]
    fn hide_blocks_extrusion_and_distinguishes_from_new() {
        let rep = run("(new n) c<n>.0", "(hide n) c<n>.0", &["c"]);
        let Verdict::Distinguished { trace } = &rep.verdict else {
            panic!("{rep:?}");
        };
        assert!(
            trace.iter().any(|s| s.contains("no corresponding output")),
            "{trace:?}"
        );
    }

    #[test]
    fn opaque_ciphertexts_hide_their_payload() {
        let rep = run(
            "(new k) c<{a, new r}:k>.0",
            "(new k) c<{b, new r}:k>.0",
            &["c", "a", "b"],
        );
        assert_eq!(rep.verdict, Verdict::Bisimilar, "{rep:?}");
    }

    #[test]
    fn known_key_ciphertexts_expose_their_payload() {
        let rep = run(
            "c<{a, new r}:k>.0",
            "c<{b, new r}:k>.0",
            &["c", "a", "b", "k"],
        );
        assert!(
            matches!(rep.verdict, Verdict::Distinguished { .. }),
            "{rep:?}"
        );
    }

    #[test]
    fn input_guard_on_injected_value_distinguishes() {
        // Left answers only to `a`, right only to `b`; injecting the
        // corresponding pair (a, a) makes them diverge.
        let rep = run(
            "c(x). [x is a] d<0>.0",
            "c(x). [x is b] d<0>.0",
            &["a", "b", "c", "d"],
        );
        let Verdict::Distinguished { trace } = &rep.verdict else {
            panic!("{rep:?}");
        };
        assert!(trace[0].starts_with("inject"), "{trace:?}");
    }

    #[test]
    fn secret_channels_are_unobservable() {
        // The channel is not in the hedge: neither output is observable,
        // so the processes are equivalent to the attacker.
        let rep = run("s<a>.0", "s<b>.0", &["a", "b"]);
        assert_eq!(rep.verdict, Verdict::Bisimilar, "{rep:?}");
    }

    #[test]
    fn reports_and_meters_are_deterministic() {
        let a = run(
            "c(x). [x is a] d<0>.0",
            "c(x). [x is b] d<0>.0",
            &["a", "b", "c", "d"],
        );
        let b = run(
            "c(x). [x is a] d<0>.0",
            "c(x). [x is b] d<0>.0",
            &["a", "b", "c", "d"],
        );
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_reports_the_exhausted_budget() {
        let tight = EquivConfig {
            max_plays: 2,
            ..EquivConfig::default()
        };
        let lp = parse_process("c(x). c(y). [x is y] d<0>.0").unwrap();
        let rp = parse_process("c(x). c(y). d<0>.0").unwrap();
        let rep = check(&lp, &rp, &syms(&["c", "d"]), &tight);
        let Verdict::Unknown { budgets } = &rep.verdict else {
            panic!("{rep:?}");
        };
        assert!(budgets.contains(&"plays".to_owned()), "{budgets:?}");
    }
}
