//! The least-solution solver.
//!
//! A worklist algorithm over the constraint system of
//! [`Constraints`](crate::Constraints): productions propagate along subset
//! edges, conditional constraints watch their scrutinee nonterminal and
//! fire as matching productions arrive, and the decryption premise
//! `w ∈ ζ(l′)` is resolved as *non-emptiness of the intersection* of two
//! regular tree languages (`L(key child) ∩ L(ζ(l′)) ≠ ∅`) — the product
//! construction the paper attributes to Nielson–Seidl's cubic-time
//! cryptographic analysis.
//!
//! The computed solution is least: every production and edge is introduced
//! only when demanded by a clause of Table 2, and positive intersection
//! facts are monotone (languages only grow), so firing order cannot
//! overshoot.

use crate::constraints::{Constraint, Constraints};
use crate::domain::{FlowVar, Prod, VarId, VarTable};
use nuspi_syntax::{Label, Symbol, Value, Var};
use std::collections::{HashMap, HashSet, VecDeque};

/// Size and effort counters of a solver run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SolverStats {
    /// Flow variables (nonterminals) in the final grammar.
    pub flow_vars: usize,
    /// Productions in the final grammar.
    pub productions: usize,
    /// Subset edges in the final grammar.
    pub edges: usize,
    /// Conditional-constraint firings.
    pub conditional_firings: usize,
    /// Intersection-nonemptiness queries issued.
    pub intersection_queries: usize,
    /// Intersection queries answered from the memo cache (positive
    /// entries are valid forever — languages only grow; negative entries
    /// are valid until the next production insertion).
    pub cache_hits: usize,
    /// Intersection queries that ran the product-pair saturation.
    pub cache_misses: usize,
    /// Outer fixpoint rounds (worklist drain + parked-decrypt scan).
    pub rounds: usize,
    /// Wall-clock milliseconds per outer fixpoint round.
    pub round_millis: Vec<f64>,
    /// Per-round intersection memo activity as `(hits, misses)` deltas.
    /// Memo caches persist across rounds, so on a workload whose final
    /// rounds re-ask settled queries the tail entries are all-hit.
    pub round_memo: Vec<(usize, usize)>,
}

#[derive(Clone, Debug)]
enum Cond {
    Output { msg: VarId },
    Input { var: VarId },
    Split { fst: VarId, snd: VarId },
    CaseSuc { pred: VarId },
    Decrypt { key: VarId, vars: Vec<VarId> },
}

/// Why a production first entered a flow variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ProdSource {
    /// Introduced by a constraint of the program (a constructor
    /// occurrence, an embedded value, or the attacker model).
    Seed,
    /// Propagated along a subset edge from another variable.
    Edge(VarId),
}

/// What justified a subset edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeKind {
    /// An unconditional `⊆` (variable occurrence, embedded value).
    Sub,
    /// The output clause fired: `msg ⊆ κ(n)`.
    Output(Symbol),
    /// The input clause fired: `κ(n) ⊆ ρ(x)`.
    Input(Symbol),
    /// Pair splitting released a component.
    Split,
    /// The integer case released a predecessor.
    CaseSuc,
    /// A decryption's key matched and released a payload slot.
    Decrypt,
}

impl std::fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeKind::Sub => write!(f, "subset (variable occurrence / embedded value)"),
            EdgeKind::Output(n) => write!(f, "output on channel {n}"),
            EdgeKind::Input(n) => write!(f, "input on channel {n}"),
            EdgeKind::Split => write!(f, "pair splitting"),
            EdgeKind::CaseSuc => write!(f, "integer case (suc branch)"),
            EdgeKind::Decrypt => write!(f, "decryption (key matched)"),
        }
    }
}

/// One hop of a reconstructed flow trace: a production's presence in a
/// flow variable, together with the constraint that put it there.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FlowStep {
    /// The flow variable the production resides in at this hop.
    pub at: FlowVar,
    /// How the production entered `at`.
    pub kind: FlowStepKind,
}

/// How a production entered the flow variable of a [`FlowStep`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FlowStepKind {
    /// Introduced by a generation-time constraint: a constructor
    /// occurrence of the process, an embedded value, or the attacker
    /// model of Lemma 1.
    Introduced,
    /// Propagated along a subset edge created by the named Table 2
    /// clause.
    Propagated {
        /// The edge's source variable.
        from: FlowVar,
        /// The clause that created the edge.
        via: EdgeKind,
    },
    /// The (variable, production) pair is not part of the solution.
    Absent,
    /// The provenance chase revisited a variable (defensive; least
    /// solutions have acyclic first-cause chains).
    Cycle,
}

/// Flow provenance: for every (variable, production) pair, how it got
/// there; for every subset edge, the clause that created it. Built by
/// [`solve_traced`]; [`Provenance::explain_steps`] reconstructs the
/// chain structurally and [`Provenance::explain`] narrates it.
#[derive(Clone, Debug, Default)]
pub struct Provenance {
    prod_source: HashMap<(VarId, Prod), ProdSource>,
    edge_kind: HashMap<(VarId, VarId), EdgeKind>,
}

impl Provenance {
    /// Reconstructs how `prod` reached `fv` as a structured trace, from
    /// the introduction site to the destination. Empty if `fv` never
    /// arose; a single [`FlowStepKind::Absent`] step if the variable
    /// exists but the production is not in it.
    pub fn explain_steps(&self, sol: &Solution, fv: FlowVar, prod: &Prod) -> Vec<FlowStep> {
        let Some(mut at) = sol.var_id(fv) else {
            return Vec::new();
        };
        let mut hops = Vec::new();
        let mut seen = HashSet::new();
        loop {
            if !seen.insert(at) {
                hops.push(FlowStep {
                    at: sol.describe(at),
                    kind: FlowStepKind::Cycle,
                });
                break;
            }
            match self.prod_source.get(&(at, prod.clone())) {
                Some(ProdSource::Seed) => {
                    hops.push(FlowStep {
                        at: sol.describe(at),
                        kind: FlowStepKind::Introduced,
                    });
                    break;
                }
                Some(ProdSource::Edge(from)) => {
                    let via = self
                        .edge_kind
                        .get(&(*from, at))
                        .copied()
                        .unwrap_or(EdgeKind::Sub);
                    hops.push(FlowStep {
                        at: sol.describe(at),
                        kind: FlowStepKind::Propagated {
                            from: sol.describe(*from),
                            via,
                        },
                    });
                    at = *from;
                }
                None => {
                    hops.push(FlowStep {
                        at: sol.describe(at),
                        kind: FlowStepKind::Absent,
                    });
                    break;
                }
            }
        }
        hops.reverse();
        hops
    }

    /// Narrates how `prod` reached `fv`: one line per hop, from the
    /// introduction site to the destination. Empty if the pair is not in
    /// the solution.
    pub fn explain(&self, sol: &Solution, fv: FlowVar, prod: &Prod) -> Vec<String> {
        self.explain_steps(sol, fv, prod)
            .into_iter()
            .map(|step| match step.kind {
                FlowStepKind::Introduced => format!("introduced at {}", step.at),
                FlowStepKind::Propagated { from, via } => {
                    format!("reached {} from {from} via {via}", step.at)
                }
                FlowStepKind::Absent => format!("not present in {}", step.at),
                FlowStepKind::Cycle => "… (cycle)".to_owned(),
            })
            .collect()
    }
}

/// The least acceptable estimate `(ρ, κ, ζ)`, represented as a regular
/// tree grammar: [`Solution::prods_of`] returns the productions of a flow
/// variable, and [`Solution::contains`] decides membership of a concrete
/// value in its language (the concretisation).
#[derive(Clone, Debug)]
pub struct Solution {
    vars: VarTable,
    prods: Vec<HashSet<Prod>>,
    stats: SolverStats,
    empty: HashSet<Prod>,
}

struct Solver {
    vars: VarTable,
    prods: Vec<HashSet<Prod>>,
    edges: Vec<Vec<VarId>>,
    edge_set: HashSet<(VarId, VarId)>,
    watchers: Vec<Vec<usize>>,
    conds: Vec<Cond>,
    queue: VecDeque<(VarId, Prod)>,
    parked: Vec<(usize, Prod)>,
    parked_set: HashSet<(usize, Prod)>,
    nonempty: HashSet<(VarId, VarId)>,
    /// Bumped on every production insertion; negative intersection
    /// answers tagged with an older generation have expired (edges alone
    /// cannot turn an empty intersection non-empty).
    generation: u64,
    neg_cache: HashMap<(VarId, VarId), u64>,
    stats: SolverStats,
    trace: Option<Provenance>,
}

/// Computes the least solution of the constraint system.
pub fn solve(constraints: Constraints) -> Solution {
    solve_impl(constraints, false).0
}

/// Like [`solve`], additionally recording flow [`Provenance`] so each
/// production's path into each variable can be narrated.
pub fn solve_traced(constraints: Constraints) -> (Solution, Provenance) {
    let (sol, prov) = solve_impl(constraints, true);
    (sol, prov.expect("tracing was enabled"))
}

fn solve_impl(constraints: Constraints, traced: bool) -> (Solution, Option<Provenance>) {
    let _sp = nuspi_obs::span!("cfa.solve");
    let Constraints { vars, list } = constraints;
    let n = vars.len();
    let mut s = Solver {
        vars,
        prods: vec![HashSet::new(); n],
        edges: vec![Vec::new(); n],
        edge_set: HashSet::new(),
        watchers: vec![Vec::new(); n],
        conds: Vec::new(),
        queue: VecDeque::new(),
        parked: Vec::new(),
        parked_set: HashSet::new(),
        nonempty: HashSet::new(),
        generation: 0,
        neg_cache: HashMap::new(),
        stats: SolverStats::default(),
        trace: traced.then(Provenance::default),
    };

    // Register conditionals before seeding facts so no production is
    // missed by a watcher.
    let mut facts = Vec::new();
    for c in list {
        match c {
            Constraint::Prod { prod, into } => facts.push((into, prod)),
            Constraint::Sub { from, into } => {
                s.add_edge(from, into, EdgeKind::Sub);
            }
            Constraint::Output { chan, msg } => s.watch(chan, Cond::Output { msg }),
            Constraint::Input { chan, var } => s.watch(chan, Cond::Input { var }),
            Constraint::Split {
                scrutinee,
                fst,
                snd,
            } => s.watch(scrutinee, Cond::Split { fst, snd }),
            Constraint::CaseSuc { scrutinee, pred } => s.watch(scrutinee, Cond::CaseSuc { pred }),
            Constraint::Decrypt {
                scrutinee,
                key,
                vars,
            } => s.watch(scrutinee, Cond::Decrypt { key, vars }),
        }
    }
    for (into, prod) in facts {
        s.add_prod(into, prod, ProdSource::Seed);
    }

    // Outer fixpoint: drain the worklist, then retry parked decryptions
    // whose key intersection may have become non-empty.
    loop {
        let _round = nuspi_obs::span!("cfa.solve.round", round = s.stats.rounds);
        let round_start = std::time::Instant::now();
        let (hits0, misses0) = (s.stats.cache_hits, s.stats.cache_misses);
        s.stats.rounds += 1;
        s.drain();
        let parked = std::mem::take(&mut s.parked);
        let mut progressed = false;
        for (idx, prod) in parked {
            let (key, vars) = match &s.conds[idx] {
                Cond::Decrypt { key, vars } => (*key, vars.clone()),
                _ => unreachable!("only decryptions are parked"),
            };
            let enc_key = match &prod {
                Prod::Enc { key, .. } => *key,
                _ => unreachable!("only Enc productions are parked"),
            };
            if s.intersect_nonempty(enc_key, key) {
                s.parked_set.remove(&(idx, prod.clone()));
                s.fire_decrypt(&prod, &vars);
                progressed = true;
            } else {
                s.parked.push((idx, prod));
            }
        }
        s.stats
            .round_millis
            .push(round_start.elapsed().as_secs_f64() * 1e3);
        s.stats
            .round_memo
            .push((s.stats.cache_hits - hits0, s.stats.cache_misses - misses0));
        if !progressed && s.queue.is_empty() {
            break;
        }
    }

    s.stats.flow_vars = s.vars.len();
    s.stats.productions = s.prods.iter().map(HashSet::len).sum();
    s.stats.edges = s.edge_set.len();
    if nuspi_obs::enabled() {
        nuspi_obs::counter("cfa.solve.calls", 1);
        nuspi_obs::counter("cfa.memo.hits", s.stats.cache_hits as u64);
        nuspi_obs::counter("cfa.memo.misses", s.stats.cache_misses as u64);
        nuspi_obs::counter("cfa.firings", s.stats.conditional_firings as u64);
        for ms in &s.stats.round_millis {
            nuspi_obs::record_us("cfa.round_us", (ms * 1e3) as u64);
        }
    }
    (
        Solution {
            vars: s.vars,
            prods: s.prods,
            stats: s.stats,
            empty: HashSet::new(),
        },
        s.trace,
    )
}

impl Solver {
    fn ensure(&mut self, v: VarId) {
        let need = v.index() + 1;
        if self.prods.len() < need {
            self.prods.resize_with(need, HashSet::new);
            self.edges.resize_with(need, Vec::new);
            self.watchers.resize_with(need, Vec::new);
        }
    }

    fn watch(&mut self, var: VarId, cond: Cond) {
        self.ensure(var);
        let idx = self.conds.len();
        self.conds.push(cond);
        self.watchers[var.index()].push(idx);
    }

    fn kappa(&mut self, chan: Symbol) -> VarId {
        let v = self.vars.intern(FlowVar::Kappa(chan));
        self.ensure(v);
        v
    }

    fn add_prod(&mut self, var: VarId, prod: Prod, source: ProdSource) {
        self.ensure(var);
        if self.prods[var.index()].insert(prod.clone()) {
            self.generation += 1;
            if let Some(trace) = &mut self.trace {
                trace.prod_source.insert((var, prod.clone()), source);
            }
            self.queue.push_back((var, prod));
        }
    }

    fn add_edge(&mut self, from: VarId, into: VarId, kind: EdgeKind) {
        self.ensure(from);
        self.ensure(into);
        if from == into || !self.edge_set.insert((from, into)) {
            return;
        }
        if let Some(trace) = &mut self.trace {
            trace.edge_kind.insert((from, into), kind);
        }
        self.edges[from.index()].push(into);
        let existing: Vec<Prod> = self.prods[from.index()].iter().cloned().collect();
        for p in existing {
            self.add_prod(into, p, ProdSource::Edge(from));
        }
    }

    fn drain(&mut self) {
        while let Some((var, prod)) = self.queue.pop_front() {
            // Propagate along subset edges.
            let targets = self.edges[var.index()].clone();
            for t in targets {
                self.add_prod(t, prod.clone(), ProdSource::Edge(var));
            }
            // Trigger conditional constraints watching this variable.
            let watchers = self.watchers[var.index()].clone();
            for idx in watchers {
                self.trigger(idx, &prod);
            }
        }
    }

    fn trigger(&mut self, idx: usize, prod: &Prod) {
        match self.conds[idx].clone() {
            Cond::Output { msg } => {
                if let Prod::Name(n) = prod {
                    let k = self.kappa(*n);
                    self.stats.conditional_firings += 1;
                    self.add_edge(msg, k, EdgeKind::Output(*n));
                }
            }
            Cond::Input { var } => {
                if let Prod::Name(n) = prod {
                    let k = self.kappa(*n);
                    self.stats.conditional_firings += 1;
                    self.add_edge(k, var, EdgeKind::Input(*n));
                }
            }
            Cond::Split { fst, snd } => {
                if let Prod::Pair(a, b) = prod {
                    self.stats.conditional_firings += 1;
                    self.add_edge(*a, fst, EdgeKind::Split);
                    self.add_edge(*b, snd, EdgeKind::Split);
                }
            }
            Cond::CaseSuc { pred } => {
                if let Prod::Suc(a) = prod {
                    self.stats.conditional_firings += 1;
                    self.add_edge(*a, pred, EdgeKind::CaseSuc);
                }
            }
            Cond::Decrypt { key, vars } => {
                if let Prod::Enc {
                    args, key: enc_key, ..
                } = prod
                {
                    if args.len() != vars.len() {
                        return;
                    }
                    if self.intersect_nonempty(*enc_key, key) {
                        self.fire_decrypt(prod, &vars);
                    } else if self.parked_set.insert((idx, prod.clone())) {
                        self.parked.push((idx, prod.clone()));
                    }
                }
            }
        }
    }

    fn fire_decrypt(&mut self, prod: &Prod, vars: &[VarId]) {
        let Prod::Enc { args, .. } = prod else {
            unreachable!("fire_decrypt on non-Enc production");
        };
        self.stats.conditional_firings += 1;
        for (a, x) in args.clone().into_iter().zip(vars.iter().copied()) {
            self.add_edge(a, x, EdgeKind::Decrypt);
        }
    }

    /// `L(a) ∩ L(b) ≠ ∅` — bottom-up product saturation over the pair
    /// graph reachable from `(a, b)`. Positive results are cached forever
    /// (languages only grow during solving, so non-emptiness is
    /// monotone); negative results are tagged with the production
    /// generation that computed them and stay valid until a production
    /// is inserted anywhere.
    fn intersect_nonempty(&mut self, a: VarId, b: VarId) -> bool {
        self.stats.intersection_queries += 1;
        let pair = norm(a, b);
        if self.nonempty.contains(&pair) {
            self.stats.cache_hits += 1;
            return true;
        }
        if self.neg_cache.get(&pair) == Some(&self.generation) {
            self.stats.cache_hits += 1;
            return false;
        }
        self.stats.cache_misses += 1;
        if intersect_fixpoint(&self.prods, &mut self.nonempty, a, b) {
            true
        } else {
            self.neg_cache.insert(pair, self.generation);
            false
        }
    }
}

fn norm(a: VarId, b: VarId) -> (VarId, VarId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Decides `L(a) ∩ L(b) ≠ ∅` over production sets `prods`, updating the
/// monotone positive cache `known`.
pub(crate) fn intersect_fixpoint(
    prods: &[HashSet<Prod>],
    known: &mut HashSet<(VarId, VarId)>,
    a: VarId,
    b: VarId,
) -> bool {
    let root = norm(a, b);
    if known.contains(&root) {
        return true;
    }
    // Discover the reachable pair graph and, per pair, the alternatives
    // (one per root-compatible production pair), each a list of child
    // pairs that must all be non-empty.
    type PairAlts = Vec<Vec<(VarId, VarId)>>;
    let mut alts: HashMap<(VarId, VarId), PairAlts> = HashMap::new();
    let mut stack = vec![root];
    while let Some(pair) = stack.pop() {
        if alts.contains_key(&pair) || known.contains(&pair) {
            continue;
        }
        let (u, v) = pair;
        let mut here = Vec::new();
        if let (Some(pu), Some(pv)) = (prods.get(u.index()), prods.get(v.index())) {
            for p in pu.iter() {
                for q in pv.iter() {
                    if let Some(children) = p.root_compatible(q) {
                        let children: Vec<(VarId, VarId)> =
                            children.into_iter().map(|(x, y)| norm(x, y)).collect();
                        for c in &children {
                            if !alts.contains_key(c) && !known.contains(c) {
                                stack.push(*c);
                            }
                        }
                        here.push(children);
                    }
                }
            }
        }
        alts.insert(pair, here);
    }
    // Saturate: a pair is non-empty if some alternative has all children
    // known non-empty.
    loop {
        let mut progressed = false;
        for (pair, alternatives) in &alts {
            if known.contains(pair) {
                continue;
            }
            if alternatives
                .iter()
                .any(|ch| ch.iter().all(|c| known.contains(c)))
            {
                known.insert(*pair);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    known.contains(&root)
}

impl Solution {
    /// Assembles a solution from raw parts (used by the reference solver,
    /// which maintains its own storage layout).
    pub(crate) fn from_parts(
        vars: VarTable,
        prods: Vec<HashSet<Prod>>,
        stats: SolverStats,
    ) -> Solution {
        Solution {
            vars,
            prods,
            stats,
            empty: HashSet::new(),
        }
    }

    /// Compares two solutions of the *same* constraint system as
    /// estimates: for every flow variable of either, the production sets
    /// must coincide (a variable absent from one side counts as empty).
    ///
    /// This is semantic equality of `(ρ, κ, ζ)`: `κ` variables are
    /// interned on demand, so their raw [`VarId`]s may differ between
    /// solvers, but production *children* are always generation-time ids
    /// and therefore comparable directly.
    pub fn estimate_eq(&self, other: &Solution) -> Result<(), String> {
        let mut names: Vec<FlowVar> = self.vars.iter().map(|(_, fv)| fv).collect();
        names.extend(other.vars.iter().map(|(_, fv)| fv));
        names.sort_by_key(|fv| format!("{fv:?}"));
        names.dedup();
        for fv in names {
            let a = self.prods_of(fv);
            let b = other.prods_of(fv);
            if a != b {
                let only_a: Vec<&Prod> = a.difference(b).collect();
                let only_b: Vec<&Prod> = b.difference(a).collect();
                return Err(format!(
                    "{fv}: left has {} prods, right {};\n  only left:  {only_a:?}\n  only right: {only_b:?}",
                    a.len(),
                    b.len()
                ));
            }
        }
        Ok(())
    }

    /// The productions of a flow variable (empty if the variable never
    /// arose).
    pub fn prods_of(&self, fv: FlowVar) -> &HashSet<Prod> {
        match self.vars.get(fv) {
            Some(id) => &self.prods[id.index()],
            None => &self.empty,
        }
    }

    /// The productions of `ζ(l)`.
    pub fn zeta(&self, l: Label) -> &HashSet<Prod> {
        self.prods_of(FlowVar::Zeta(l))
    }

    /// The productions of `ρ(x)`.
    pub fn rho(&self, x: Var) -> &HashSet<Prod> {
        self.prods_of(FlowVar::Rho(x))
    }

    /// The productions of `κ(n)` for a canonical channel name.
    pub fn kappa(&self, n: Symbol) -> &HashSet<Prod> {
        self.prods_of(FlowVar::Kappa(n))
    }

    /// The productions behind a raw [`VarId`] (for grammar traversals).
    pub fn prods_of_id(&self, id: VarId) -> &HashSet<Prod> {
        self.prods.get(id.index()).unwrap_or(&self.empty)
    }

    /// Every canonical channel name with a `κ` entry, sorted by name so
    /// callers (and golden files) see the same order regardless of
    /// interning order or solver layout.
    pub fn channels(&self) -> Vec<Symbol> {
        let mut out: Vec<Symbol> = self
            .vars
            .iter()
            .filter_map(|(_, fv)| match fv {
                FlowVar::Kappa(n) => Some(n),
                _ => None,
            })
            .collect();
        out.sort_by_key(|n| n.as_str());
        out
    }

    /// Every flow variable of the solution.
    pub fn flow_vars(&self) -> impl Iterator<Item = (VarId, FlowVar)> + '_ {
        self.vars.iter()
    }

    /// Resolves a flow variable to its id, if it arose during analysis.
    pub fn var_id(&self, fv: FlowVar) -> Option<VarId> {
        self.vars.get(fv)
    }

    /// Describes a raw id.
    pub fn describe(&self, id: VarId) -> FlowVar {
        self.vars.describe(id)
    }

    /// Membership of a concrete value in the language of a flow variable:
    /// `⌊w⌋ ∈ L(fv)`. This is the concretisation the subject-reduction
    /// theorem (Theorem 1) quantifies over; the value is canonicalised
    /// internally.
    pub fn contains(&self, fv: FlowVar, w: &Value) -> bool {
        match self.vars.get(fv) {
            Some(id) => {
                let canonical = w.canonicalize();
                self.member(id, &canonical)
            }
            None => false,
        }
    }

    fn member(&self, id: VarId, w: &Value) -> bool {
        let Some(set) = self.prods.get(id.index()) else {
            return false;
        };
        set.iter().any(|p| match p.matches_value(w) {
            Some(obligations) => obligations.iter().all(|(v, child)| self.member(*v, child)),
            None => false,
        })
    }

    /// Decides `L(a) ∩ L(b) ≠ ∅` on the solved grammar.
    pub fn intersect_nonempty(&self, a: VarId, b: VarId) -> bool {
        let mut known = HashSet::new();
        intersect_fixpoint(&self.prods, &mut known, a, b)
    }

    /// Enumerates up to `limit` values of `L(fv)` with height at most
    /// `max_height` (diagnostics; the language may be infinite). The
    /// order is deterministic — productions are visited in rendered
    /// order, which depends only on the grammar's languages, never on
    /// hashing or on the solver's [`VarId`] layout — so output is
    /// byte-stable across runs.
    pub fn enumerate(&self, fv: FlowVar, max_height: usize, limit: usize) -> Vec<Value> {
        let Some(id) = self.vars.get(fv) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        self.enum_var(id, max_height, limit, &mut out);
        out
    }

    fn enum_var(&self, id: VarId, height: usize, limit: usize, out: &mut Vec<Value>) {
        if height == 0 || out.len() >= limit {
            return;
        }
        let Some(set) = self.prods.get(id.index()) else {
            return;
        };
        let mut sorted: Vec<&Prod> = set.iter().collect();
        sorted.sort_by_cached_key(|p| self.render_production(p, 8));
        for p in sorted {
            if out.len() >= limit {
                return;
            }
            match p {
                Prod::Name(n) => out.push(Value::Name(nuspi_syntax::Name::global(*n))),
                Prod::Zero => out.push(Value::Zero),
                Prod::Suc(a) => {
                    let mut inner = Vec::new();
                    self.enum_var(*a, height - 1, limit, &mut inner);
                    for w in inner {
                        if out.len() >= limit {
                            return;
                        }
                        out.push(Value::Suc(w.into()));
                    }
                }
                Prod::Pair(a, b) => {
                    let mut left = Vec::new();
                    let mut right = Vec::new();
                    self.enum_var(*a, height - 1, limit, &mut left);
                    self.enum_var(*b, height - 1, limit, &mut right);
                    for u in &left {
                        for v in &right {
                            if out.len() >= limit {
                                return;
                            }
                            out.push(Value::Pair(u.clone().into(), v.clone().into()));
                        }
                    }
                }
                Prod::Enc {
                    args,
                    confounder,
                    key,
                } => {
                    let mut kvs = Vec::new();
                    self.enum_var(*key, height - 1, limit, &mut kvs);
                    let mut arg_sets: Vec<Vec<Value>> = Vec::new();
                    for a in args {
                        let mut s = Vec::new();
                        self.enum_var(*a, height - 1, limit, &mut s);
                        arg_sets.push(s);
                    }
                    // Take the first choice per slot to bound the output.
                    if kvs.is_empty() || arg_sets.iter().any(Vec::is_empty) {
                        continue;
                    }
                    if out.len() >= limit {
                        return;
                    }
                    out.push(Value::Enc {
                        payload: arg_sets.iter().map(|s| s[0].clone().into()).collect(),
                        confounder: nuspi_syntax::Name::global(*confounder),
                        key: kvs[0].clone().into(),
                    });
                }
            }
        }
    }

    /// The solver's effort counters.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Constraints;
    use nuspi_syntax::parse_process;

    #[test]
    fn provenance_narrates_a_relay_flow() {
        let p = parse_process("a<m>.0 | a(x).b<x>.0 | b(y).0").unwrap();
        let (sol, prov) = solve_traced(Constraints::generate(&p));
        let prod = Prod::Name(Symbol::intern("m"));
        let story = prov.explain(&sol, FlowVar::Kappa(Symbol::intern("b")), &prod);
        assert!(story.len() >= 3, "{story:?}");
        assert!(story[0].contains("introduced"), "{story:?}");
        assert!(
            story.iter().any(|l| l.contains("input on channel a")),
            "{story:?}"
        );
        assert!(
            story.iter().any(|l| l.contains("output on channel b")),
            "{story:?}"
        );
    }

    #[test]
    fn provenance_narrates_a_decryption_release() {
        let p = parse_process("c<{m, new r}:k>.0 | c(z). case z of {x}:k in d<x>.0").unwrap();
        let (sol, prov) = solve_traced(Constraints::generate(&p));
        let prod = Prod::Name(Symbol::intern("m"));
        let story = prov.explain(&sol, FlowVar::Kappa(Symbol::intern("d")), &prod);
        assert!(story.iter().any(|l| l.contains("decryption")), "{story:?}");
    }

    #[test]
    fn provenance_reports_absent_flows() {
        let p = parse_process("a<m>.0").unwrap();
        let (sol, prov) = solve_traced(Constraints::generate(&p));
        let prod = Prod::Zero;
        let story = prov.explain(&sol, FlowVar::Kappa(Symbol::intern("a")), &prod);
        assert_eq!(story.len(), 1);
        assert!(story[0].contains("not present"), "{story:?}");
    }

    #[test]
    fn traced_and_untraced_solutions_agree() {
        let p =
            parse_process("(new k) (c<{m, new r}:k>.0 | c(z). case z of {x}:k in d<x>.0)").unwrap();
        let plain = solve(Constraints::generate(&p));
        let (traced, _) = solve_traced(Constraints::generate(&p));
        assert_eq!(plain.stats().productions, traced.stats().productions);
        assert_eq!(plain.stats().edges, traced.stats().edges);
    }

    fn analyze(src: &str) -> (nuspi_syntax::Process, Solution) {
        let p = parse_process(src).unwrap();
        let sol = solve(Constraints::generate(&p));
        (p, sol)
    }

    fn chan(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn output_populates_kappa() {
        let (_, sol) = analyze("c<m>.0");
        let k = sol.kappa(chan("c"));
        assert_eq!(k.len(), 1);
        assert!(k.contains(&Prod::Name(chan("m"))));
    }

    #[test]
    fn communication_flows_into_rho() {
        let (p, sol) = analyze("c<m>.0 | c(x).0");
        let x = var_named(&p, "x");
        assert!(sol.rho(x).contains(&Prod::Name(chan("m"))));
    }

    fn var_named(p: &nuspi_syntax::Process, name: &str) -> Var {
        fn walk(p: &nuspi_syntax::Process, name: &str, out: &mut Option<Var>) {
            use nuspi_syntax::Process as P;
            match p {
                P::Input { var, then, .. } => {
                    if var.symbol().as_str() == name {
                        *out = Some(*var);
                    }
                    walk(then, name, out);
                }
                P::Par(a, b) => {
                    walk(a, name, out);
                    walk(b, name, out);
                }
                P::Restrict { body, .. } | P::Hide { body, .. } => walk(body, name, out),
                P::Replicate(q) => walk(q, name, out),
                P::Output { then, .. } => walk(then, name, out),
                P::Match { then, .. } => walk(then, name, out),
                P::Let { fst, snd, then, .. } => {
                    if fst.symbol().as_str() == name {
                        *out = Some(*fst);
                    }
                    if snd.symbol().as_str() == name {
                        *out = Some(*snd);
                    }
                    walk(then, name, out);
                }
                P::CaseNat {
                    pred, zero, succ, ..
                } => {
                    if pred.symbol().as_str() == name {
                        *out = Some(*pred);
                    }
                    walk(zero, name, out);
                    walk(succ, name, out);
                }
                P::CaseDec { vars, then, .. } => {
                    for v in vars {
                        if v.symbol().as_str() == name {
                            *out = Some(*v);
                        }
                    }
                    walk(then, name, out);
                }
                P::Nil => {}
            }
        }
        let mut out = None;
        walk(p, name, &mut out);
        out.unwrap_or_else(|| panic!("no variable {name}"))
    }

    #[test]
    fn relay_chains_flow_transitively() {
        let (p, sol) = analyze("a<m>.0 | a(x).b<x>.0 | b(y).0");
        let y = var_named(&p, "y");
        assert!(sol.rho(y).contains(&Prod::Name(chan("m"))));
        assert!(sol.kappa(chan("b")).contains(&Prod::Name(chan("m"))));
    }

    #[test]
    fn split_distributes_components() {
        let (p, sol) = analyze("c<(a, b)>.0 | c(z). let (x, y) = z in d<x>.e<y>.0");
        let x = var_named(&p, "x");
        let y = var_named(&p, "y");
        assert!(sol.rho(x).contains(&Prod::Name(chan("a"))));
        assert!(sol.rho(y).contains(&Prod::Name(chan("b"))));
        assert!(!sol.rho(x).contains(&Prod::Name(chan("b"))));
    }

    #[test]
    fn case_suc_extracts_predecessor() {
        let (p, sol) = analyze("c<2>.0 | c(z). case z of 0: 0, suc(x): d<x>.0");
        let x = var_named(&p, "x");
        // x may be suc(0) — i.e. ρ(x) contains a Suc production.
        assert!(sol.rho(x).iter().any(|pr| matches!(pr, Prod::Suc(_))));
    }

    #[test]
    fn decryption_with_matching_key_fires() {
        let (p, sol) = analyze("c<{m, new r}:k>.0 | c(z). case z of {x}:k in d<x>.0");
        let x = var_named(&p, "x");
        assert!(sol.rho(x).contains(&Prod::Name(chan("m"))));
        assert!(sol.kappa(chan("d")).contains(&Prod::Name(chan("m"))));
    }

    #[test]
    fn decryption_with_wrong_key_does_not_fire() {
        let (p, sol) = analyze("c<{m, new r}:k>.0 | c(z). case z of {x}:k2 in d<x>.0");
        let x = var_named(&p, "x");
        assert!(sol.rho(x).is_empty());
        assert!(sol.kappa(chan("d")).is_empty());
    }

    #[test]
    fn decryption_with_wrong_arity_does_not_fire() {
        let (p, sol) = analyze("c<{m, new r}:k>.0 | c(z). case z of {x, y}:k in d<x>.0");
        let x = var_named(&p, "x");
        assert!(sol.rho(x).is_empty());
    }

    #[test]
    fn restricted_key_decryption_fires_on_canonical_name() {
        let (p, sol) = analyze("(new k) (c<{m, new r}:k>.0 | c(z). case z of {x}:k in d<x>.0)");
        let x = var_named(&p, "x");
        assert!(sol.rho(x).contains(&Prod::Name(chan("m"))));
    }

    #[test]
    fn structured_keys_need_language_intersection() {
        // Key is the pair (a,b) built at two different sites — membership
        // must be decided by language intersection, not production id.
        let (p, sol) = analyze("c<{m, new r}:(a, b)>.0 | c(z). case z of {x}:(a, b) in d<x>.0");
        let x = var_named(&p, "x");
        assert!(
            sol.rho(x).contains(&Prod::Name(chan("m"))),
            "two distinct pair sites with equal language must unlock"
        );
    }

    #[test]
    fn structured_keys_with_different_languages_stay_locked() {
        let (p, sol) = analyze("c<{m, new r}:(a, b)>.0 | c(z). case z of {x}:(a, wrong) in d<x>.0");
        let x = var_named(&p, "x");
        assert!(sol.rho(x).is_empty());
    }

    #[test]
    fn key_learned_later_unlocks_parked_decryption() {
        // The key k2 only reaches the decryptor through a communication
        // that the solver discovers *after* the Enc production arrives.
        let (p, sol) = analyze(
            "c<{m, new r}:k2>.0 | kchan<k2>.0 | kchan(kk). c(z). case z of {x}:kk in d<x>.0",
        );
        let x = var_named(&p, "x");
        assert!(
            sol.rho(x).contains(&Prod::Name(chan("m"))),
            "parked decryption must re-fire once κ(kchan) feeds ρ(kk)"
        );
    }

    #[test]
    fn contains_decides_membership() {
        let (p, sol) = analyze("c<(m, 0)>.0 | c(x).0");
        let x = var_named(&p, "x");
        let w = Value::pair(Value::name("m"), Value::zero());
        assert!(sol.contains(FlowVar::Rho(x), &w));
        assert!(!sol.contains(FlowVar::Rho(x), &Value::zero()));
    }

    #[test]
    fn contains_canonicalizes_fresh_names() {
        let (p, sol) = analyze("(new s) c<s>.0 | c(x).0");
        let x = var_named(&p, "x");
        let fresh = nuspi_syntax::Name::global("s").freshen();
        assert!(sol.contains(FlowVar::Rho(x), &Value::name(fresh)));
    }

    #[test]
    fn enumerate_lists_small_values() {
        let (_, sol) = analyze("c<0>.c<suc(0)>.0");
        let vals = sol.enumerate(FlowVar::Kappa(chan("c")), 3, 10);
        assert!(vals.contains(&Value::Zero));
        assert!(vals.iter().any(|v| v.as_numeral() == Some(1)));
    }

    #[test]
    fn self_loop_through_channel_terminates() {
        // x is re-sent on its own input channel: κ(c) ⊆ ρ(x) ⊆ κ(c).
        let (_, sol) = analyze("c<m>.0 | !c(x).c<x>.0");
        assert!(sol.kappa(chan("c")).contains(&Prod::Name(chan("m"))));
    }

    #[test]
    fn growing_recursion_through_suc_terminates() {
        // Each round wraps another suc — the grammar stays finite where
        // the value set would be infinite.
        let (_, sol) = analyze("c<0>.0 | !c(x).c<suc(x)>.0");
        let k = sol.kappa(chan("c"));
        assert!(k.contains(&Prod::Zero));
        assert!(k.iter().any(|p| matches!(p, Prod::Suc(_))));
        // The language is infinite: every numeral is a member.
        for n in 0..10 {
            assert!(sol.contains(FlowVar::Kappa(chan("c")), &Value::numeral(n)));
        }
        assert!(!sol.contains(FlowVar::Kappa(chan("c")), &Value::name("m")));
    }

    #[test]
    fn stats_are_populated() {
        let (_, sol) = analyze("c<{m, new r}:k>.0 | c(z). case z of {x}:k in 0");
        let st = sol.stats();
        assert!(st.flow_vars > 0);
        assert!(st.productions > 0);
        assert!(st.conditional_firings > 0);
        assert!(st.intersection_queries > 0);
        assert!(st.rounds >= 1);
    }

    #[test]
    fn wmf_example_analysis() {
        // Example 1 of the paper: the payload m flows to B's variable q,
        // and the session key kAB reaches the server's s and B's y.
        let src = "
            (new kAS) (new kBS) (
              ((new kAB) cAS<{kAB, new r1}:kAS>. cAB<{m, new r2}:kAB>.0
               | cBS(t). case t of {y}:kBS in cAB(z). case z of {q}:y in 0)
              | cAS(x). case x of {s}:kAS in cBS<{s, new r3}:kBS>.0
            )";
        let (p, sol) = analyze(src);
        let q = var_named(&p, "q");
        let s = var_named(&p, "s");
        let y = var_named(&p, "y");
        assert!(sol.rho(q).contains(&Prod::Name(chan("m"))));
        assert!(sol.rho(s).contains(&Prod::Name(chan("kAB"))));
        assert!(sol.rho(y).contains(&Prod::Name(chan("kAB"))));
        // No cleartext secret on the public channels: κ(cAS) holds only
        // ciphertexts.
        assert!(sol
            .kappa(chan("cAS"))
            .iter()
            .all(|pr| matches!(pr, Prod::Enc { .. })));
    }
}
