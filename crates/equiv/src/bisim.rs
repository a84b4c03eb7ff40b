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
//! A position builds only what it plays: its closures keep only the
//! visible commitments, a move is a descriptor borrowing them, and a
//! successor is built right before it is played (DESIGN.md §15).

use crate::hedge::{Hedge, Inconsistency};
use crate::key::state_key;
use nuspi_semantics::{tau_closure, Abstraction, Action, Agent, Concretion, EvalMode, ExecConfig};
use nuspi_syntax::{builder, canonical_digest, Name, Process, Symbol, Value};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

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
    let identity = |(l, r): &(Arc<Value>, Arc<Value>)| l == r;
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
    let report = game.deepen(left, right, &hedge);
    count_verdict(report.verdict.tag());
    if nuspi_obs::enabled() {
        nuspi_obs::counter("equiv.plays", game.plays as u64);
        nuspi_obs::counter("equiv.positions", game.positions as u64);
        if let Verdict::Unknown { budgets } = &report.verdict {
            for b in budgets {
                nuspi_obs::counter(&format!("equiv.budget.{b}"), 1);
            }
        }
    }
    report
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

    /// `(a, b)` on the left side, `(b, a)` on the right: it lays out an
    /// (attacker, defender) pair as (left, right), and back.
    fn orient<T>(self, a: T, b: T) -> (T, T) {
        match self {
            Side::Lhs => (a, b),
            Side::Rhs => (b, a),
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
    Emit(Side, Arc<Value>, Name),
    /// The attacker injects the first value on its side's channel and
    /// the second on the defender's.
    Inject(Arc<Value>, Arc<Value>, Name),
    /// The defender's reply to `side`'s output, the value on the
    /// channel, makes the hedge inconsistent.
    Replies(Side, Arc<Value>, Name, Inconsistency),
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

/// A position's `τ`-closure as the game reads it: the visible
/// commitments of every reachable state, split by polarity, each list in
/// BFS order. The states themselves and their `τ` residuals are never
/// read, so they are not kept.
struct Closure {
    /// Outputs: channel and concretion.
    outs: Vec<(Name, Concretion)>,
    /// Inputs: channel and abstraction.
    ins: Vec<(Name, Abstraction)>,
    /// Whether the closure was truncated: a defender answering from it
    /// is incomplete.
    truncated: bool,
}

/// One attacker move, as a descriptor borrowing the attacker's closure.
/// Which defender replies are consistent, and the successor each leads
/// to, are worked out only when the game gets to them.
struct Move<'a> {
    /// The side the attacker acts on.
    side: Side,
    /// The attacker's channel.
    ch: Name,
    /// The defender's channel: `ch`'s partner under the hedge.
    co: Name,
    kind: MoveKind<'a>,
}

enum MoveKind<'a> {
    /// The attacker reads the concretion's value on `ch`.
    Out(&'a Concretion),
    /// The attacker injects the first value into the abstraction on
    /// `ch` and the second on the defender's `co`.
    In(&'a Abstraction, Arc<Value>, Arc<Value>),
}

impl Move<'_> {
    fn step(&self) -> Line {
        match &self.kind {
            MoveKind::Out(conc) => Line::Emit(self.side, conc.value.clone(), self.ch),
            MoveKind::In(_, own, def) => Line::Inject(own.clone(), def.clone(), self.ch),
        }
    }
}

/// Where a move's consistent defender replies start: the index of the
/// first one in the defender's closure list and, for an output, the
/// hedge that reply yields.
struct First {
    at: usize,
    learned: Option<Hedge>,
}

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
    closures: HashMap<u64, Arc<Closure>>,
    /// Scratch space of the memo-key walk.
    fresh: Vec<u32>,
    #[cfg(test)]
    meter: Meter,
}

/// What the game wall counts: successors built, and `play` calls.
#[cfg(test)]
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct Meter {
    built: usize,
    calls: usize,
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
            #[cfg(test)]
            meter: Meter::default(),
        }
    }

    /// Plays the rounds of iterative deepening from the root position.
    fn deepen(&mut self, left: &Process, right: &Process, hedge: &Hedge) -> EquivReport {
        let mut depth = 0;
        let mut out_of_plays = false;
        let mut report_verdict = None;
        for fuel in 1..=self.cfg.game_depth {
            depth = fuel;
            self.depth_cutoff = false;
            self.memo.clear();
            match self.play(left, right, hedge, fuel) {
                Outcome::Distinguished(trace) => {
                    report_verdict = Some(Verdict::Distinguished { trace });
                    break;
                }
                Outcome::NoDistinction => {
                    if self.plays >= self.cfg.max_plays {
                        out_of_plays = true;
                        break;
                    }
                    if !self.depth_cutoff && self.exhausted.is_empty() {
                        report_verdict = Some(Verdict::Bisimilar);
                        break;
                    }
                }
            }
        }
        let verdict = report_verdict.unwrap_or_else(|| {
            let mut budgets = self.exhausted.clone();
            if out_of_plays {
                budgets.insert("plays");
            }
            if self.depth_cutoff {
                budgets.insert("depth");
            }
            Verdict::Unknown {
                budgets: budgets.into_iter().map(str::to_owned).collect(),
            }
        });
        EquivReport {
            verdict,
            plays: self.plays,
            depth,
        }
    }

    /// Bumps the game wall's meter.
    #[cfg(test)]
    fn tally(&mut self, bump: impl FnOnce(&mut Meter)) {
        bump(&mut self.meter);
    }

    fn closure(&mut self, p: &Process) -> Arc<Closure> {
        let h = nuspi_syntax::alpha_hash(p);
        if let Some(c) = self.closures.get(&h) {
            return Arc::clone(c);
        }
        let (mut outs, mut ins) = (Vec::new(), Vec::new());
        let stats = tau_closure(p, &self.cfg.exec(), |c| match (c.action, c.agent) {
            (Action::Out(ch), Agent::Conc(conc)) => outs.push((ch, conc)),
            (Action::In(ch), Agent::Abs(abs)) => ins.push((ch, abs)),
            _ => {}
        });
        let c = Arc::new(Closure {
            outs,
            ins,
            truncated: stats.truncated,
        });
        self.closures.insert(h, Arc::clone(&c));
        c
    }

    fn play(&mut self, left: &Process, right: &Process, hedge: &Hedge, fuel: usize) -> Outcome {
        #[cfg(test)]
        self.tally(|t| t.calls += 1);
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
        if lc.truncated || rc.truncated {
            self.exhausted.insert("tau");
        }
        let outcome = if fuel == 0 {
            if !self.moves(&lc, &rc, hedge).is_empty() {
                self.depth_cutoff = true;
            }
            Outcome::NoDistinction
        } else {
            self.evaluate(&lc, &rc, hedge, fuel)
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
    /// budget on deep consistent branches. A move won against an
    /// incomplete defender is not a win; `play` raised `tau` when it
    /// took that defender's closure.
    fn evaluate(&mut self, lc: &Closure, rc: &Closure, hedge: &Hedge, fuel: usize) -> Outcome {
        let moves = self.moves(lc, rc, hedge);
        let mut firsts = Vec::with_capacity(moves.len());
        for m in &moves {
            let (_, def) = m.side.orient(lc, rc);
            match first_reply(m, def, hedge) {
                Ok(first) => firsts.push(Some(first)),
                Err(experiment) if !def.truncated => {
                    return Outcome::Distinguished(vec![m.step().render(), experiment.render()]);
                }
                Err(_) => firsts.push(None),
            }
        }
        for (m, first) in moves.iter().zip(firsts) {
            let Some(first) = first else { continue };
            let (_, def) = m.side.orient(lc, rc);
            let mut first_failure = None;
            let mut all_refuted = true;
            self.successors(m, def, hedge, first, |game, l2, r2, h2| {
                match game.play(l2, r2, h2, fuel - 1) {
                    Outcome::NoDistinction => all_refuted = false,
                    Outcome::Distinguished(t) => {
                        first_failure.get_or_insert(t);
                    }
                }
                all_refuted
            });
            if all_refuted && !def.truncated {
                let mut trace = vec![m.step().render()];
                trace.extend(first_failure.expect("every move with a reply plays one"));
                return Outcome::Distinguished(trace);
            }
        }
        Outcome::NoDistinction
    }

    /// Builds the successors of `m`, one per consistent defender reply
    /// in reply order from `first`, and hands each to `each` before the
    /// next is built; stops when `each` returns `false`. An output's
    /// successor borrows both continuations from the closures. An
    /// input's substitutes the attacker's injection once per move and
    /// the defender's once per reply, under the position's own hedge.
    fn successors(
        &mut self,
        m: &Move<'_>,
        def: &Closure,
        hedge: &Hedge,
        first: First,
        mut each: impl FnMut(&mut Game, &Process, &Process, &Hedge) -> bool,
    ) {
        let First { at, mut learned } = first;
        match &m.kind {
            MoveKind::Out(conc) => {
                for (dch, dconc) in &def.outs[at..] {
                    if *dch != m.co {
                        continue;
                    }
                    let h2 = match learned.take() {
                        Some(h2) => h2,
                        None => match learn(hedge, m.side, conc, dconc) {
                            Ok(h2) => h2,
                            Err(_) => continue,
                        },
                    };
                    let (l2, r2) = m.side.orient(&conc.body, &dconc.body);
                    #[cfg(test)]
                    self.tally(|t| t.built += 1);
                    if !each(self, l2, r2, &h2) {
                        return;
                    }
                }
            }
            MoveKind::In(abs, own, dval) => {
                let cont = receive(abs, own);
                for (dch, dabs) in &def.ins[at..] {
                    if *dch != m.co {
                        continue;
                    }
                    let dcont = receive(dabs, dval);
                    let (l2, r2) = m.side.orient(&cont, &dcont);
                    #[cfg(test)]
                    self.tally(|t| t.built += 1);
                    if !each(self, l2, r2, hedge) {
                        return;
                    }
                }
            }
        }
    }

    /// Lists the attacker's moves: outputs (passive observation) before
    /// inputs (active injection), each side in turn, closure commitments
    /// in BFS order, an input once per injection — all deterministic.
    fn moves<'a>(&mut self, lc: &'a Closure, rc: &'a Closure, hedge: &Hedge) -> Vec<Move<'a>> {
        let mut out = Vec::new();
        for side in [Side::Lhs, Side::Rhs] {
            let (att, _) = side.orient(lc, rc);
            for (ch, conc) in &att.outs {
                if let Some(co) = co_channel(hedge, side, *ch) {
                    let kind = MoveKind::Out(conc);
                    out.push(Move {
                        side,
                        ch: *ch,
                        co,
                        kind,
                    });
                }
            }
        }
        for side in [Side::Lhs, Side::Rhs] {
            let (att, _) = side.orient(lc, rc);
            let mut injections = None;
            for (ch, abs) in &att.ins {
                let Some(co) = co_channel(hedge, side, *ch) else {
                    continue;
                };
                let injections = injections.get_or_insert_with(|| self.injections(hedge, side));
                for (own, def) in injections.iter() {
                    let kind = MoveKind::In(abs, own.clone(), def.clone());
                    out.push(Move {
                        side,
                        ch: *ch,
                        co,
                        kind,
                    });
                }
            }
        }
        out
    }

    /// The message pairs the attacker can inject: `(0, 0)`, then whole
    /// observed messages (replays — the protocol attacker's key move:
    /// reflection, re-forwarding a starved message), then every
    /// irreducible hedge pair, capped by the injection budget.
    fn injections(&mut self, hedge: &Hedge, side: Side) -> Vec<(Arc<Value>, Arc<Value>)> {
        let mut out = vec![(Value::zero(), Value::zero())];
        let candidates = hedge.replays().iter().chain(hedge.pairs());
        for (l, r) in candidates {
            let oriented = side.orient(l.clone(), r.clone());
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

fn co_channel(hedge: &Hedge, side: Side, ch: Name) -> Option<Name> {
    match side {
        Side::Lhs => hedge.co_channel_left(ch),
        Side::Rhs => hedge.co_channel_right(ch),
    }
}

/// The defender's first consistent reply to `m`, or, when there is
/// none, the experiment that wins the move: the first inconsistent
/// reply, else the missing output or input. An output's replies are
/// learned only up to the first consistent one.
fn first_reply(m: &Move<'_>, def: &Closure, hedge: &Hedge) -> Result<First, Line> {
    match &m.kind {
        MoveKind::Out(conc) => {
            let mut experiment = None;
            for (at, (dch, dconc)) in def.outs.iter().enumerate() {
                if *dch != m.co {
                    continue;
                }
                match learn(hedge, m.side, conc, dconc) {
                    Ok(h2) => {
                        let learned = Some(h2);
                        return Ok(First { at, learned });
                    }
                    Err(e) => {
                        experiment.get_or_insert_with(|| {
                            Line::Replies(m.side, dconc.value.clone(), m.co, e)
                        });
                    }
                }
            }
            Err(experiment.unwrap_or(Line::NoOutput(m.side, m.co)))
        }
        MoveKind::In(..) => match def.ins.iter().position(|(dch, _)| *dch == m.co) {
            Some(at) => Ok(First { at, learned: None }),
            None => Err(Line::NoInput(m.side, m.co)),
        },
    }
}

/// The hedge after the attacker sees `own` emitted on its side and
/// `def` on the defender's.
fn learn(
    hedge: &Hedge,
    side: Side,
    own: &Concretion,
    def: &Concretion,
) -> Result<Hedge, Inconsistency> {
    let (l, r) = side.orient(&own.value, &def.value);
    hedge.learn(l.clone(), r.clone())
}

/// The continuation of an input: re-wrap the abstraction's extruded
/// restrictions around the instantiated body.
fn receive(abs: &Abstraction, value: &Arc<Value>) -> Process {
    builder::restrict_all(
        abs.restricted.iter().copied(),
        abs.body.subst(abs.var, value),
    )
}

#[cfg(test)]
mod game_wall;
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
