//! Finite reference estimates: Table 2 interpreted literally over explicit
//! sets of canonical values.
//!
//! The solver works on a grammar representation; this module is the
//! *reference semantics* of the flow logic for estimates whose components
//! are finite, explicitly enumerated sets. It exists to machine-check the
//! meta-theory of §3:
//!
//! * [`FiniteEstimate::accepts`] is the clause-by-clause acceptability
//!   judgement `(ρ, κ, ζ) ⊨ P`;
//! * [`FiniteEstimate::meet`] is the `⊓` of the Moore-family theorem
//!   (Theorem 2) — the experiment suite verifies that meets of acceptable
//!   estimates stay acceptable and that the solver's least solution is
//!   below every acceptable finite estimate.

use nuspi_syntax::{Expr, Label, Name, Process, Symbol, Term, Value, Var};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A finite set of canonical values.
pub type ValSet = BTreeSet<Arc<Value>>;

/// A finite, explicit estimate `(ρ, κ, ζ)`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FiniteEstimate {
    rho: HashMap<Var, ValSet>,
    kappa: HashMap<Symbol, ValSet>,
    zeta: HashMap<Label, ValSet>,
    empty: ValSet,
}

/// A violated clause, with a human-readable description.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FiniteViolation(pub String);

impl std::fmt::Display for FiniteViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl FiniteEstimate {
    /// The everywhere-empty estimate.
    pub fn new() -> FiniteEstimate {
        FiniteEstimate::default()
    }

    /// Adds a value to `ρ(x)` (canonicalised).
    pub fn add_rho(&mut self, x: Var, w: Arc<Value>) -> &mut Self {
        self.rho.entry(x).or_default().insert(w.canonicalize());
        self
    }

    /// Adds a value to `κ(n)` (canonicalised).
    pub fn add_kappa(&mut self, n: Symbol, w: Arc<Value>) -> &mut Self {
        self.kappa.entry(n).or_default().insert(w.canonicalize());
        self
    }

    /// Adds a value to `ζ(l)` (canonicalised).
    pub fn add_zeta(&mut self, l: Label, w: Arc<Value>) -> &mut Self {
        self.zeta.entry(l).or_default().insert(w.canonicalize());
        self
    }

    /// `ρ(x)`.
    pub fn rho(&self, x: Var) -> &ValSet {
        self.rho.get(&x).unwrap_or(&self.empty)
    }

    /// `κ(n)`.
    pub fn kappa(&self, n: Symbol) -> &ValSet {
        self.kappa.get(&n).unwrap_or(&self.empty)
    }

    /// `ζ(l)`.
    pub fn zeta(&self, l: Label) -> &ValSet {
        self.zeta.get(&l).unwrap_or(&self.empty)
    }

    /// The pointwise meet `⊓` (set intersection on every component).
    pub fn meet(&self, other: &FiniteEstimate) -> FiniteEstimate {
        fn meet_maps<K: std::hash::Hash + Eq + Copy>(
            a: &HashMap<K, ValSet>,
            b: &HashMap<K, ValSet>,
        ) -> HashMap<K, ValSet> {
            let mut out = HashMap::new();
            for (k, va) in a {
                if let Some(vb) = b.get(k) {
                    let meet: ValSet = va.intersection(vb).cloned().collect();
                    if !meet.is_empty() {
                        out.insert(*k, meet);
                    }
                }
            }
            out
        }
        FiniteEstimate {
            rho: meet_maps(&self.rho, &other.rho),
            kappa: meet_maps(&self.kappa, &other.kappa),
            zeta: meet_maps(&self.zeta, &other.zeta),
            empty: ValSet::new(),
        }
    }

    /// The pointwise join (set union on every component).
    pub fn join(&self, other: &FiniteEstimate) -> FiniteEstimate {
        fn join_maps<K: std::hash::Hash + Eq + Copy>(
            a: &HashMap<K, ValSet>,
            b: &HashMap<K, ValSet>,
        ) -> HashMap<K, ValSet> {
            let mut out = a.clone();
            for (k, vb) in b {
                out.entry(*k).or_default().extend(vb.iter().cloned());
            }
            out
        }
        FiniteEstimate {
            rho: join_maps(&self.rho, &other.rho),
            kappa: join_maps(&self.kappa, &other.kappa),
            zeta: join_maps(&self.zeta, &other.zeta),
            empty: ValSet::new(),
        }
    }

    /// The partial order `⊑` of the estimate lattice: pointwise `⊆`.
    pub fn leq(&self, other: &FiniteEstimate) -> bool {
        fn leq_maps<K: std::hash::Hash + Eq>(
            a: &HashMap<K, ValSet>,
            b: &HashMap<K, ValSet>,
        ) -> bool {
            a.iter().all(|(k, va)| {
                va.is_empty() || b.get(k).map(|vb| va.is_subset(vb)).unwrap_or(false)
            })
        }
        leq_maps(&self.rho, &other.rho)
            && leq_maps(&self.kappa, &other.kappa)
            && leq_maps(&self.zeta, &other.zeta)
    }

    /// Lemma 2's restriction: keeps only the `ρ` entries for variables
    /// occurring in `p` and the `ζ` entries for labels occurring in `p`
    /// (`κ` is untouched — it is indexed by canonical names, which are
    /// global). Lemma 2 states `(ρ, κ, ζ) ⊨ P iff (ρ|B, κ, ζ|L) ⊨ P`.
    pub fn restrict_to(&self, p: &Process) -> FiniteEstimate {
        let labels: std::collections::HashSet<Label> = p.labels().into_iter().collect();
        let vars = collect_vars(p);
        FiniteEstimate {
            rho: self
                .rho
                .iter()
                .filter(|(x, _)| vars.contains(x))
                .map(|(x, s)| (*x, s.clone()))
                .collect(),
            kappa: self.kappa.clone(),
            zeta: self
                .zeta
                .iter()
                .filter(|(l, _)| labels.contains(l))
                .map(|(l, s)| (*l, s.clone()))
                .collect(),
            empty: ValSet::new(),
        }
    }

    /// The acceptability judgement `(ρ, κ, ζ) ⊨ P`, Table 2 read literally
    /// over the finite sets. Returns every violated clause.
    pub fn verify(&self, p: &Process) -> Vec<FiniteViolation> {
        let mut c = FiniteChecker {
            est: self,
            violations: Vec::new(),
        };
        c.process(p);
        c.violations
    }

    /// Whether the estimate is acceptable for `p`.
    pub fn accepts(&self, p: &Process) -> bool {
        self.verify(p).is_empty()
    }
}

struct FiniteChecker<'a> {
    est: &'a FiniteEstimate,
    violations: Vec<FiniteViolation>,
}

impl FiniteChecker<'_> {
    fn fail(&mut self, msg: String) {
        self.violations.push(FiniteViolation(msg));
    }

    fn need(&mut self, w: Arc<Value>, l: Label, ctx: &str) {
        if !self.est.zeta(l).contains(&w) {
            self.fail(format!("{ctx}: {w} ∉ ζ({l})"));
        }
    }

    fn expr(&mut self, e: &Expr) {
        let l = e.label;
        match &e.term {
            Term::Name(n) => self.need(Value::name(Name::global(n.canonical())), l, "name clause"),
            Term::Zero => self.need(Value::zero(), l, "zero clause"),
            Term::Var(x) => {
                for w in self.est.rho(*x).clone() {
                    if !self.est.zeta(l).contains(&w) {
                        self.fail(format!("variable clause: {w} ∈ ρ({x}) but ∉ ζ({l})"));
                    }
                }
            }
            Term::Suc(inner) => {
                self.expr(inner);
                for w in self.est.zeta(inner.label).clone() {
                    self.need(Value::suc(w), l, "suc clause");
                }
            }
            Term::Pair(a, b) => {
                self.expr(a);
                self.expr(b);
                for u in self.est.zeta(a.label).clone() {
                    for v in self.est.zeta(b.label).clone() {
                        self.need(Value::pair(u.clone(), v), l, "pair clause");
                    }
                }
            }
            Term::Enc {
                payload,
                confounder,
                key,
            } => {
                for p in payload {
                    self.expr(p);
                }
                self.expr(key);
                // ENC{ζ(l₁),…,ζ(lₖ),{⌊r⌋}}_{ζ(l₀)} ⊆ ζ(l): all payload
                // combinations under all keys.
                let slots: Vec<Vec<Arc<Value>>> = payload
                    .iter()
                    .map(|p| self.est.zeta(p.label).iter().cloned().collect())
                    .collect();
                let keys: Vec<Arc<Value>> = self.est.zeta(key.label).iter().cloned().collect();
                let conf = Name::global(confounder.canonical());
                for combo in combinations(&slots) {
                    for k in &keys {
                        self.need(
                            Value::enc(combo.clone(), conf, k.clone()),
                            l,
                            "encryption clause",
                        );
                    }
                }
            }
            Term::Val(w) => self.need(w.canonicalize(), l, "value clause"),
        }
    }

    fn process(&mut self, p: &Process) {
        match p {
            Process::Nil => {}
            Process::Output { chan, msg, then } => {
                self.expr(chan);
                self.expr(msg);
                self.process(then);
                for w in self.est.zeta(chan.label).clone() {
                    if let Value::Name(n) = &*w {
                        for m in self.est.zeta(msg.label).clone() {
                            if !self.est.kappa(n.canonical()).contains(&m) {
                                self.fail(format!("output clause: {m} ∉ κ({n})"));
                            }
                        }
                    }
                }
            }
            Process::Input { chan, var, then } => {
                self.expr(chan);
                self.process(then);
                for w in self.est.zeta(chan.label).clone() {
                    if let Value::Name(n) = &*w {
                        for m in self.est.kappa(n.canonical()).clone() {
                            if !self.est.rho(*var).contains(&m) {
                                self.fail(format!("input clause: {m} ∉ ρ({var})"));
                            }
                        }
                    }
                }
            }
            Process::Par(a, b) => {
                self.process(a);
                self.process(b);
            }
            Process::Restrict { body, .. } | Process::Hide { body, .. } => self.process(body),
            Process::Replicate(q) => self.process(q),
            Process::Match { lhs, rhs, then } => {
                self.expr(lhs);
                self.expr(rhs);
                self.process(then);
            }
            Process::Let {
                fst,
                snd,
                expr,
                then,
            } => {
                self.expr(expr);
                self.process(then);
                for w in self.est.zeta(expr.label).clone() {
                    if let Value::Pair(a, b) = &*w {
                        if !self.est.rho(*fst).contains(a) {
                            self.fail(format!("let clause: {a} ∉ ρ({fst})"));
                        }
                        if !self.est.rho(*snd).contains(b) {
                            self.fail(format!("let clause: {b} ∉ ρ({snd})"));
                        }
                    }
                }
            }
            Process::CaseNat {
                expr,
                zero,
                pred,
                succ,
            } => {
                self.expr(expr);
                self.process(zero);
                self.process(succ);
                for w in self.est.zeta(expr.label).clone() {
                    if let Value::Suc(inner) = &*w {
                        if !self.est.rho(*pred).contains(inner) {
                            self.fail(format!("case-suc clause: {inner} ∉ ρ({pred})"));
                        }
                    }
                }
            }
            Process::CaseDec {
                expr,
                vars,
                key,
                then,
            } => {
                self.expr(expr);
                self.expr(key);
                self.process(then);
                for w in self.est.zeta(expr.label).clone() {
                    if let Value::Enc {
                        payload, key: used, ..
                    } = &*w
                    {
                        if payload.len() == vars.len() && self.est.zeta(key.label).contains(used) {
                            for (x, wi) in vars.iter().zip(payload) {
                                if !self.est.rho(*x).contains(wi) {
                                    self.fail(format!("decryption clause: {wi} ∉ ρ({x})"));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Every variable (bound or occurring) of a process.
fn collect_vars(p: &Process) -> std::collections::HashSet<Var> {
    fn expr(e: &Expr, out: &mut std::collections::HashSet<Var>) {
        match &e.term {
            Term::Var(x) => {
                out.insert(*x);
            }
            Term::Name(_) | Term::Zero | Term::Val(_) => {}
            Term::Suc(i) => expr(i, out),
            Term::Pair(a, b) => {
                expr(a, out);
                expr(b, out);
            }
            Term::Enc { payload, key, .. } => {
                for p in payload {
                    expr(p, out);
                }
                expr(key, out);
            }
        }
    }
    fn walk(p: &Process, out: &mut std::collections::HashSet<Var>) {
        match p {
            Process::Nil => {}
            Process::Output { chan, msg, then } => {
                expr(chan, out);
                expr(msg, out);
                walk(then, out);
            }
            Process::Input { chan, var, then } => {
                expr(chan, out);
                out.insert(*var);
                walk(then, out);
            }
            Process::Par(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Process::Restrict { body, .. } | Process::Hide { body, .. } => walk(body, out),
            Process::Replicate(q) => walk(q, out),
            Process::Match { lhs, rhs, then } => {
                expr(lhs, out);
                expr(rhs, out);
                walk(then, out);
            }
            Process::Let {
                fst,
                snd,
                expr: e,
                then,
            } => {
                out.insert(*fst);
                out.insert(*snd);
                expr(e, out);
                walk(then, out);
            }
            Process::CaseNat {
                expr: e,
                zero,
                pred,
                succ,
            } => {
                expr(e, out);
                out.insert(*pred);
                walk(zero, out);
                walk(succ, out);
            }
            Process::CaseDec {
                expr: e,
                vars,
                key,
                then,
            } => {
                expr(e, out);
                expr(key, out);
                out.extend(vars.iter().copied());
                walk(then, out);
            }
        }
    }
    let mut out = std::collections::HashSet::new();
    walk(p, &mut out);
    out
}

/// Cartesian product of the slots.
fn combinations(slots: &[Vec<Arc<Value>>]) -> Vec<Vec<Arc<Value>>> {
    let mut out = vec![Vec::new()];
    for slot in slots {
        let mut next = Vec::new();
        for prefix in &out {
            for v in slot {
                let mut row = prefix.clone();
                row.push(v.clone());
                next.push(row);
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_syntax::parse_process;

    /// Builds a finite estimate for a flat process (names only) by
    /// saturating Table 2 naively.
    fn saturate(p: &Process, extra: &FiniteEstimate) -> FiniteEstimate {
        let mut est = extra.clone();
        // A crude fixpoint: apply clause closures until stable. Only valid
        // for processes whose expressions are names/vars (no constructors).
        for _ in 0..64 {
            let before = est.clone();
            let mut c = Saturator { est: &mut est };
            c.process(p);
            if before == est {
                break;
            }
        }
        est
    }

    struct Saturator<'a> {
        est: &'a mut FiniteEstimate,
    }

    impl Saturator<'_> {
        fn expr(&mut self, e: &Expr) {
            match &e.term {
                Term::Name(n) => {
                    self.est
                        .add_zeta(e.label, Value::name(Name::global(n.canonical())));
                }
                Term::Var(x) => {
                    for w in self.est.rho(*x).clone() {
                        self.est.add_zeta(e.label, w);
                    }
                }
                _ => panic!("saturator only supports flat expressions"),
            }
        }

        fn process(&mut self, p: &Process) {
            match p {
                Process::Nil => {}
                Process::Output { chan, msg, then } => {
                    self.expr(chan);
                    self.expr(msg);
                    self.process(then);
                    for w in self.est.zeta(chan.label).clone() {
                        if let Value::Name(n) = &*w {
                            for m in self.est.zeta(msg.label).clone() {
                                self.est.add_kappa(n.canonical(), m);
                            }
                        }
                    }
                }
                Process::Input { chan, var, then } => {
                    self.expr(chan);
                    for w in self.est.zeta(chan.label).clone() {
                        if let Value::Name(n) = &*w {
                            for m in self.est.kappa(n.canonical()).clone() {
                                self.est.add_rho(*var, m);
                            }
                        }
                    }
                    self.process(then);
                }
                Process::Par(a, b) => {
                    self.process(a);
                    self.process(b);
                }
                Process::Restrict { body, .. } => self.process(body),
                Process::Replicate(q) => self.process(q),
                _ => panic!("saturator only supports flat processes"),
            }
        }
    }

    #[test]
    fn saturated_estimate_is_acceptable() {
        let p = parse_process("c<m>.0 | c(x).d<x>.0").unwrap();
        let est = saturate(&p, &FiniteEstimate::new());
        assert!(est.accepts(&p), "{:?}", est.verify(&p));
    }

    #[test]
    fn empty_estimate_rejects_nonempty_process() {
        let p = parse_process("c<m>.0").unwrap();
        let est = FiniteEstimate::new();
        assert!(!est.accepts(&p));
    }

    #[test]
    fn empty_estimate_accepts_nil() {
        assert!(FiniteEstimate::new().accepts(&Process::Nil));
    }

    #[test]
    fn moore_meet_of_acceptable_is_acceptable() {
        // Two different over-approximations of the same flat process.
        let p = parse_process("c<m>.0 | c(x).d<x>.0").unwrap();
        let mut extra1 = FiniteEstimate::new();
        extra1.add_kappa(Symbol::intern("c"), Value::name("junk1"));
        let mut extra2 = FiniteEstimate::new();
        extra2.add_kappa(Symbol::intern("c"), Value::name("junk2"));
        let e1 = saturate(&p, &extra1);
        let e2 = saturate(&p, &extra2);
        assert!(e1.accepts(&p));
        assert!(e2.accepts(&p));
        let met = e1.meet(&e2);
        assert!(met.accepts(&p), "{:?}", met.verify(&p));
        assert!(met.leq(&e1) && met.leq(&e2));
    }

    #[test]
    fn least_saturation_is_below_padded_saturations() {
        let p = parse_process("c<m>.0 | c(x).d<x>.0").unwrap();
        let least = saturate(&p, &FiniteEstimate::new());
        let mut extra = FiniteEstimate::new();
        extra.add_kappa(Symbol::intern("d"), Value::name("noise"));
        let padded = saturate(&p, &extra);
        assert!(least.leq(&padded));
        assert!(!padded.leq(&least));
    }

    #[test]
    fn join_is_upper_bound() {
        let mut a = FiniteEstimate::new();
        a.add_kappa(Symbol::intern("c"), Value::zero());
        let mut b = FiniteEstimate::new();
        b.add_kappa(Symbol::intern("c"), Value::name("m"));
        let j = a.join(&b);
        assert!(a.leq(&j) && b.leq(&j));
        assert_eq!(j.kappa(Symbol::intern("c")).len(), 2);
    }

    #[test]
    fn leq_is_reflexive_and_antisymmetric_here() {
        let mut a = FiniteEstimate::new();
        a.add_kappa(Symbol::intern("c"), Value::zero());
        assert!(a.leq(&a));
        let b = a.clone();
        assert!(a.leq(&b) && b.leq(&a));
    }

    #[test]
    fn structured_clause_checking_pairs() {
        let p = parse_process("c<(a, b)>.0").unwrap();
        // Hand-build an acceptable estimate.
        let (chan_l, pair_l, a_l, b_l) = match &p {
            Process::Output { chan, msg, .. } => match &msg.term {
                Term::Pair(a, b) => (chan.label, msg.label, a.label, b.label),
                _ => unreachable!(),
            },
            _ => unreachable!(),
        };
        let mut est = FiniteEstimate::new();
        est.add_zeta(chan_l, Value::name("c"));
        est.add_zeta(a_l, Value::name("a"));
        est.add_zeta(b_l, Value::name("b"));
        let pair = Value::pair(Value::name("a"), Value::name("b"));
        est.add_zeta(pair_l, pair.clone());
        est.add_kappa(Symbol::intern("c"), pair);
        assert!(est.accepts(&p), "{:?}", est.verify(&p));
        // Dropping the κ entry breaks the output clause.
        let mut broken = FiniteEstimate::new();
        broken.add_zeta(chan_l, Value::name("c"));
        broken.add_zeta(a_l, Value::name("a"));
        broken.add_zeta(b_l, Value::name("b"));
        broken.add_zeta(pair_l, Value::pair(Value::name("a"), Value::name("b")));
        assert!(!broken.accepts(&p));
    }

    #[test]
    fn lemma2_restriction_preserves_acceptability() {
        // (ρ, κ, ζ) ⊨ P iff (ρ|B, κ, ζ|L) ⊨ P — padding on *foreign*
        // variables and labels is irrelevant.
        let p = parse_process("c<m>.0 | c(x).d<x>.0").unwrap();
        let mut est = saturate(&p, &FiniteEstimate::new());
        assert!(est.accepts(&p));
        // Pad with entries for a different process entirely.
        let other = parse_process("e(y).f<y>.0").unwrap();
        if let Process::Input { var, .. } = &other {
            est.add_rho(*var, Value::name("noise"));
        }
        est.add_zeta(nuspi_syntax::Label::fresh(), Value::name("noise"));
        let restricted = est.restrict_to(&p);
        assert!(restricted.accepts(&p), "{:?}", restricted.verify(&p));
        assert!(restricted.leq(&est));
        // The padding is gone but the P-relevant part is intact.
        assert!(est.accepts(&p), "padding never broke acceptability");
        assert_eq!(restricted.restrict_to(&p), restricted, "idempotent");
    }

    #[test]
    fn decryption_clause_checks_key_membership() {
        let p = parse_process("case e of {x}:k in 0").unwrap();
        let (ct_l, key_l, x) = match &p {
            Process::CaseDec {
                expr, key, vars, ..
            } => (expr.label, key.label, vars[0]),
            _ => unreachable!(),
        };
        let ct = Value::enc(vec![Value::name("m")], Name::global("r"), Value::name("k"));
        // Key matches, payload missing from ρ(x): violation.
        let mut est = FiniteEstimate::new();
        est.add_zeta(ct_l, ct.clone());
        est.add_zeta(key_l, Value::name("k"));
        // the free name `e` also needs its clause
        est.add_zeta(ct_l, Value::name("e"));
        assert!(!est.accepts(&p));
        // Add the payload: acceptable.
        est.add_rho(x, Value::name("m"));
        assert!(est.accepts(&p), "{:?}", est.verify(&p));
        // Wrong key in ζ(l′): clause vacuous, estimate acceptable without ρ(x).
        let mut est2 = FiniteEstimate::new();
        est2.add_zeta(ct_l, ct);
        est2.add_zeta(ct_l, Value::name("e"));
        est2.add_zeta(key_l, Value::name("k"));
        let mut est3 = est2.clone();
        est3.rho.clear();
        // est2 == est3 without rho; key matches so it must be rejected.
        assert!(!est3.accepts(&p));
    }
}
