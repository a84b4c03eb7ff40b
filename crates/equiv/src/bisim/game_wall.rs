//! The game wall: the game, which builds a successor only when it plays
//! it and keeps only the visible commitments of a closure, against the
//! eager game it replaced, which built every reply's successor of every
//! move before playing any and kept every closure state with its full
//! commitment list. At a leaf the eager game asks its `any_move`, and
//! the game asks its own move list.
//!
//! The two must agree on everything a check reports or counts: the full
//! [`EquivReport`] (verdict, trace, plays, depth), the positions examined
//! and the set of exhausted budgets. A meter on the game also checks
//! that every successor it builds is played. The corpora are the 25
//! pairs of the `equiv-oracle` workload (the 21 zoo oracle pairs and the
//! 4 equiv goldens), each flawed zoo spec against its honest sibling,
//! `key_wall`'s seeded random oracle pairs and the miner's mutants of
//! the honest twins, each played as the engine's `equiv` body plays it.
//! Each is played under the default budgets and under budgets tight
//! enough to hit `tau` (an incomplete defender, on both sides or on
//! one), `injections` and `plays`. Run it by name:
//!
//! ```text
//! cargo test -q -p nuspi-equiv --lib game_wall
//! ```
//!
//! Unoptimised builds play smaller games, as `equiv_differential` does;
//! a release run plays the default budgets.

use super::key_wall::{oracle_pair, oriented, random_open, RANDOM_PAIRS, RANDOM_SEED};
use super::{
    EquivConfig, EquivReport, Game, Hedge, Line, MemoEntry, Meter, Outcome, Process, Side, Verdict,
};
use crate::key::state_key;
use crate::mutate::mutations;
use nuspi_semantics::{explore_tau, Action, Agent, Commitment, Concretion, SplitMix64};
use nuspi_syntax::{builder, parse_process, Name, Value};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The budgets every pair is played under.
fn budgets() -> Vec<(&'static str, EquivConfig)> {
    let base = if cfg!(debug_assertions) {
        EquivConfig {
            game_depth: 4,
            max_plays: 1_500,
            ..EquivConfig::default()
        }
    } else {
        EquivConfig::default()
    };
    vec![
        ("default", base),
        (
            "tau",
            EquivConfig {
                tau_states: 1,
                ..base
            },
        ),
        // Closures truncate on one side and not the other.
        (
            "tau-partial",
            EquivConfig {
                tau_states: 4,
                ..base
            },
        ),
        (
            "injections",
            EquivConfig {
                max_injections: 2,
                ..base
            },
        ),
        (
            "plays",
            EquivConfig {
                max_plays: 40,
                ..base
            },
        ),
    ]
}

/// What a corpus exercised: games played, plays and successors built
/// over them, and per budget set every budget its games hit (raised
/// flags and the budgets `Unknown` verdicts named).
#[derive(Default)]
struct Tally {
    games: usize,
    plays: usize,
    built: usize,
    hit: HashMap<&'static str, BTreeSet<String>>,
}

impl Tally {
    /// Plays `(left, right, hedge)` in both games under every budget
    /// set and checks that they agree.
    fn compare(&mut self, root: &str, left: &Process, right: &Process, hedge: &Hedge) {
        for (name, cfg) in budgets() {
            let mut game = Game::new(cfg);
            let got = game.deepen(left, right, hedge);
            let mut reference = Reference::new(cfg);
            let want = reference.deepen(left, right, hedge);
            let at = format!("{root} under {name} budgets");
            assert_eq!(got, want, "{at}: report");
            assert_eq!(game.positions, reference.positions, "{at}: positions");
            assert_eq!(
                game.exhausted, reference.exhausted,
                "{at}: exhausted budgets"
            );
            let Meter { built, calls } = game.meter;
            assert_eq!(
                built,
                calls - got.depth,
                "{at}: successors built but not played"
            );
            self.games += 1;
            self.plays += got.plays;
            self.built += built;
            let hit = self.hit.entry(name).or_default();
            hit.extend(game.exhausted.iter().map(|b| b.to_string()));
            if let Verdict::Unknown { budgets } = &got.verdict {
                hit.extend(budgets.iter().cloned());
            }
        }
    }

    /// Reports the corpus and checks that every tight budget bit.
    fn finish(&self, corpus: &str) {
        eprintln!(
            "{corpus}: {} games, {} plays, {} successors built",
            self.games, self.plays, self.built
        );
        for budget in ["tau", "injections", "plays"] {
            assert!(
                self.hit.get(budget).is_some_and(|b| b.contains(budget)),
                "{corpus}: the tight `{budget}` budget never bit: {:?}",
                self.hit
            );
        }
    }
}

#[test]
fn the_game_matches_the_eager_game_on_the_oracle_workload() {
    let mut tally = Tally::default();
    let mut pairs = Vec::new();
    for spec in nuspi_protocols::suite() {
        let (open, x) = spec
            .process
            .abstract_restriction(spec.secret)
            .expect("zoo specs restrict their secret");
        let (left, right) = oracle_pair(&open, x);
        pairs.push((format!("oracle/{}", spec.name), left, right));
    }
    let goldens = [
        ("new-vs-hide", "(new n) c<n>.0", "(hide n) c<n>.0"),
        (
            "sealed-twins",
            "(new k) c<{a, new r}:k>.0",
            "(new k2) c<{b, new r2}:k2>.0",
        ),
    ];
    for (name, l, r) in goldens {
        let (l, r) = (parse_process(l).unwrap(), parse_process(r).unwrap());
        pairs.push((name.to_owned(), l, r));
    }
    for (honest, broken) in nuspi_protocols::broken_twins() {
        let name = format!("{}-vs-{}", honest.name, broken.name);
        let (l, r) = (parse_process(&honest.source), parse_process(&broken.source));
        pairs.push((name, l.unwrap(), r.unwrap()));
    }
    assert_eq!(pairs.len(), 25);
    for (name, left, right) in pairs {
        let (left, right, hedge) = oriented(left, right);
        tally.compare(&name, &left, &right, &hedge);
    }
    tally.finish("oracle");
}

#[test]
fn the_game_matches_the_eager_game_on_the_broken_twins() {
    let mut tally = Tally::default();
    let mut honest = None;
    let mut twins = 0;
    for spec in nuspi_protocols::suite() {
        if spec.expect_confined {
            honest = Some(spec);
            continue;
        }
        // Each flawed variant follows its honest sibling in the suite.
        let sibling = honest.as_ref().expect("a flawed spec follows its sibling");
        let family = sibling.name.split('-').next().unwrap_or_default();
        assert!(
            spec.name.starts_with(family),
            "{} vs {}",
            sibling.name,
            spec.name
        );
        let (left, right, hedge) = oriented(sibling.process.clone(), spec.process.clone());
        tally.compare(
            &format!("{}-vs-{}", sibling.name, spec.name),
            &left,
            &right,
            &hedge,
        );
        twins += 1;
    }
    assert_eq!(twins, 12);
    tally.finish("twins");
}

#[test]
fn the_game_matches_the_eager_game_on_random_oracle_pairs() {
    let mut tally = Tally::default();
    let mut rng = SplitMix64::seed_from_u64(RANDOM_SEED);
    for i in 0..RANDOM_PAIRS {
        let (open, x) = random_open(&mut rng);
        let (left, right) = oracle_pair(&open, x);
        let (left, right, hedge) = oriented(left, right);
        tally.compare(&format!("random #{i}"), &left, &right, &hedge);
    }
    tally.finish("random");
}

#[test]
fn the_game_matches_the_eager_game_on_mined_mutants() {
    let mut tally = Tally::default();
    let mut mutants = 0;
    for (honest, _) in nuspi_protocols::broken_twins() {
        for m in mutations(&honest.process) {
            let (left, right, hedge) = oriented(honest.process.clone(), m.process);
            tally.compare(
                &format!("{}: {}", honest.name, m.label),
                &left,
                &right,
                &hedge,
            );
            mutants += 1;
        }
    }
    assert!(mutants >= 20, "{mutants}");
    tally.finish("mutants");
}

// ---------------------------------------------------------------------
// The reference: the eager game, as it stood before successors were
// built on demand.
// ---------------------------------------------------------------------

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

/// Every closure state with its full commitment list, and whether the
/// closure was truncated.
type Closure = Arc<(Vec<(Process, Vec<Commitment>)>, bool)>;

struct Reference {
    cfg: EquivConfig,
    plays: usize,
    positions: usize,
    exhausted: BTreeSet<&'static str>,
    depth_cutoff: bool,
    memo: HashMap<u128, MemoEntry>,
    closures: HashMap<u64, Closure>,
    fresh: Vec<u32>,
}

impl Reference {
    fn new(cfg: EquivConfig) -> Reference {
        Reference {
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

    fn closure(&mut self, p: &Process) -> Closure {
        let h = nuspi_syntax::alpha_hash(p);
        if let Some(c) = self.closures.get(&h) {
            return Arc::clone(c);
        }
        let mut states = Vec::new();
        let stats = explore_tau(p, &self.cfg.exec(), |state, cs| {
            states.push((state.clone(), cs.to_vec()));
            true
        });
        let c: Closure = Arc::new((states, stats.truncated));
        self.closures.insert(h, Arc::clone(&c));
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
            }
        }
        Outcome::NoDistinction
    }

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
                            out.push(out_move(side, *ch, co, conc, def, hedge));
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

    fn injections(&mut self, hedge: &Hedge, side: Side) -> Vec<(Arc<Value>, Arc<Value>)> {
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

fn out_move(
    side: Side,
    ch: Name,
    co: Name,
    conc: &Concretion,
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

fn receive(
    restricted: &[Name],
    var: nuspi_syntax::Var,
    body: &Process,
    value: &Arc<Value>,
) -> Process {
    builder::restrict_all(restricted.iter().copied(), body.subst(var, value))
}

#[allow(clippy::too_many_arguments)]
fn in_move(
    side: Side,
    ch: Name,
    co: Name,
    inj_own: Arc<Value>,
    inj_def: Arc<Value>,
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
