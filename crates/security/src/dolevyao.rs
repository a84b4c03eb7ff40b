//! The Dolev–Yao intruder: knowledge closure `C(W)` and the revelation
//! relation `R` (§4 of the paper).
//!
//! [`Knowledge`] maintains a set of values closed under *analysis*
//! (projecting pairs, peeling successors, decrypting ciphertexts whose key
//! is derivable) and decides *synthesis* ([`Knowledge::can_derive`]):
//! whether a value is in `C(W)` — constructible from the analysed set by
//! pairing, successor, and encryption with a known confounder. Names can
//! only be known, never synthesised, so secrecy of a name is exactly its
//! absence from the closure.
//!
//! [`reveals`] implements Definition 5 as a bounded active-intruder
//! search: starting from public knowledge `K₀`, the environment runs `R`
//! against the process — silently stepping, receiving on channels it
//! knows, and injecting derivable values — until either the secret
//! becomes derivable (an attack, returned as a narrated trace) or the
//! budget is exhausted. This bounded search is the reproduction's
//! substitute for the paper's universally-quantified attacker (see
//! DESIGN.md): it can *refute* secrecy with a concrete attack and gives
//! evidence for it when no attack is found.

use nuspi_semantics::{commitments, Action, Agent, CommitConfig};
use nuspi_syntax::{Name, Process, Symbol, Value};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashSet};
use std::rc::Rc;

/// An attacker knowledge set, kept closed under analysis.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Knowledge {
    values: BTreeSet<Rc<Value>>,
}

impl Knowledge {
    /// Knowledge of the given (public) canonical names, plus the numeral
    /// `0` (the closure always contains the numbers).
    pub fn from_names<I, S>(names: I) -> Knowledge
    where
        I: IntoIterator<Item = S>,
        S: Into<Symbol>,
    {
        let mut k = Knowledge::default();
        k.values.insert(Value::zero());
        for n in names {
            k.values.insert(Value::name(Name::global(n.into())));
        }
        k.saturate();
        k
    }

    /// Learns a value (e.g. observed on the network) and re-closes under
    /// analysis.
    pub fn learn(&mut self, w: Rc<Value>) {
        if self.values.insert(w) {
            self.saturate();
        }
    }

    /// Analysis closure: pairs are split, successors peeled, and
    /// ciphertexts opened once their key becomes derivable. Runs to
    /// fixpoint (opening one ciphertext may make another key derivable).
    fn saturate(&mut self) {
        loop {
            let mut new: Vec<Rc<Value>> = Vec::new();
            for w in &self.values {
                match &**w {
                    Value::Pair(a, b) => {
                        new.push(Rc::clone(a));
                        new.push(Rc::clone(b));
                    }
                    Value::Suc(inner) => new.push(Rc::clone(inner)),
                    Value::Enc { payload, key, .. } => {
                        if self.can_derive(key) {
                            new.extend(payload.iter().cloned());
                        }
                    }
                    Value::Name(_) | Value::Zero => {}
                }
            }
            let before = self.values.len();
            self.values.extend(new);
            if self.values.len() == before {
                break;
            }
        }
    }

    /// Synthesis: `w ∈ C(W)`?
    pub fn can_derive(&self, w: &Rc<Value>) -> bool {
        if self.values.contains(w) {
            return true;
        }
        match &**w {
            Value::Name(_) => false, // names cannot be synthesised
            Value::Zero => true,
            Value::Suc(inner) => self.can_derive(inner),
            Value::Pair(a, b) => self.can_derive(a) && self.can_derive(b),
            Value::Enc {
                payload,
                confounder,
                key,
            } => {
                // `∀ r ∈ W`: the confounder must itself be known.
                self.values.contains(&Value::name(*confounder))
                    && self.can_derive(key)
                    && payload.iter().all(|p| self.can_derive(p))
            }
        }
    }

    /// Synthesis modulo `⌊·⌋`: can a value with the same *canonical* form
    /// as `w` be derived? Definition 5 phrases revelation canonically
    /// (`⌊w⌋ ∈ W′`), and runtime knowledge holds freshly-indexed names.
    pub fn can_derive_canonical(&self, w: &Value) -> bool {
        let target = w.canonicalize();
        self.derive_canonical(&target)
    }

    fn derive_canonical(&self, target: &Rc<Value>) -> bool {
        if self.values.iter().any(|v| v.canonicalize() == *target) {
            return true;
        }
        match &**target {
            Value::Name(_) => false,
            Value::Zero => true,
            Value::Suc(inner) => self.derive_canonical(&inner.canonicalize()),
            Value::Pair(a, b) => {
                self.derive_canonical(&a.canonicalize()) && self.derive_canonical(&b.canonicalize())
            }
            Value::Enc {
                payload,
                confounder,
                key,
            } => {
                self.values.iter().any(
                    |v| matches!(&**v, Value::Name(n) if n.canonical() == confounder.canonical()),
                ) && self.derive_canonical(&key.canonicalize())
                    && payload
                        .iter()
                        .all(|p| self.derive_canonical(&p.canonicalize()))
            }
        }
    }

    /// Whether any known value is a name with the given canonical base —
    /// the revelation test of Definition 5 for name secrets.
    pub fn knows_name_with_base(&self, base: Symbol) -> bool {
        self.values.iter().any(|w| match &**w {
            Value::Name(n) => n.canonical() == base,
            _ => false,
        })
    }

    /// Whether the exact (indexed) name is known — channel knowledge.
    pub fn knows_channel(&self, n: Name) -> bool {
        self.values.contains(&Value::name(n))
    }

    /// Iterates over the analysed values.
    pub fn iter(&self) -> impl Iterator<Item = &Rc<Value>> {
        self.values.iter()
    }

    /// Number of analysed values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing is known.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Budgets for the active-intruder search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntruderConfig {
    /// Replication unfolding budget per commitment enumeration.
    pub rep_budget: u32,
    /// Maximum interaction depth (τ steps, observations, injections).
    pub max_depth: usize,
    /// Maximum number of explored configurations.
    pub max_states: usize,
    /// Maximum distinct values injected per input opportunity.
    pub max_injections: usize,
    /// How many knowledge values are used as components for depth-1
    /// *synthesised pair* injections (0 disables pair synthesis).
    /// Forging a message from projected parts — e.g. the Otway–Rees
    /// key-in-clear attack re-assembles message 4 as
    /// `(run-id, {N_A, K_AB}K_AS)` — needs this.
    pub pair_components: usize,
}

impl Default for IntruderConfig {
    fn default() -> IntruderConfig {
        IntruderConfig {
            rep_budget: 1,
            max_depth: 12,
            max_states: 4000,
            max_injections: 8,
            pair_components: 0,
        }
    }
}

/// The result of a revelation search: a narrated attack trace if the
/// secret became derivable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Attack {
    /// Human-readable steps of the attack, in order.
    pub trace: Vec<String>,
    /// Size of the final knowledge.
    pub knowledge_size: usize,
}

/// Definition 5, bounded: may `p` reveal a value whose canonical base is
/// `secret` to an environment initially knowing the names `k0`?
///
/// Returns a concrete attack when one is found within the budgets, `None`
/// otherwise (evidence of secrecy, not proof — see DESIGN.md).
pub fn reveals(
    p: &Process,
    k0: &Knowledge,
    secret: Symbol,
    cfg: &IntruderConfig,
) -> Option<Attack> {
    search(p, k0, cfg, &mut |w: &Knowledge| {
        w.knows_name_with_base(secret)
    })
}

/// Like [`reveals`] but for an arbitrary target value: the environment
/// wins when `target` becomes derivable.
pub fn reveals_value(
    p: &Process,
    k0: &Knowledge,
    target: &Rc<Value>,
    cfg: &IntruderConfig,
) -> Option<Attack> {
    let goal = Rc::clone(target);
    search(p, k0, cfg, &mut move |w: &Knowledge| {
        w.can_derive_canonical(&goal)
    })
}

struct Configuration {
    process: Process,
    knowledge: Knowledge,
    trace: Vec<String>,
    depth: usize,
}

/// Best-first exploration order: configurations that have *learned more*
/// are expanded first (knowledge growth dominates, depth breaks ties).
/// This lets deep replay attacks surface long before the breadth of
/// garbage-injection branches exhausts the state budget.
struct Prioritised {
    score: (usize, Reverse<usize>, Reverse<u64>),
    conf: Configuration,
}

impl PartialEq for Prioritised {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score
    }
}
impl Eq for Prioritised {}
impl PartialOrd for Prioritised {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Prioritised {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score.cmp(&other.score)
    }
}

fn search(
    p: &Process,
    k0: &Knowledge,
    cfg: &IntruderConfig,
    goal: &mut dyn FnMut(&Knowledge) -> bool,
) -> Option<Attack> {
    let ccfg = CommitConfig {
        mode: nuspi_semantics::EvalMode::NuSpi,
        rep_budget: cfg.rep_budget,
    };
    if goal(k0) {
        return Some(Attack {
            trace: vec!["secret derivable from initial knowledge".to_owned()],
            knowledge_size: k0.len(),
        });
    }
    let mut queue: BinaryHeap<Prioritised> = BinaryHeap::new();
    let mut ticket = 0u64;
    let push_conf = |queue: &mut BinaryHeap<Prioritised>,
                     visited: &mut HashSet<(Process, BTreeSet<Rc<Value>>)>,
                     ticket: &mut u64,
                     conf: Configuration| {
        let key = (
            conf.process.clone(),
            conf.knowledge.iter().cloned().collect(),
        );
        if visited.insert(key) {
            *ticket += 1;
            queue.push(Prioritised {
                score: (conf.knowledge.len(), Reverse(conf.depth), Reverse(*ticket)),
                conf,
            });
        }
    };
    let mut visited: HashSet<(Process, BTreeSet<Rc<Value>>)> = HashSet::new();
    push_conf(
        &mut queue,
        &mut visited,
        &mut ticket,
        Configuration {
            process: p.clone(),
            knowledge: k0.clone(),
            trace: Vec::new(),
            depth: 0,
        },
    );
    let mut states = 0;
    while let Some(Prioritised { conf, .. }) = queue.pop() {
        if states >= cfg.max_states {
            return None;
        }
        states += 1;
        if conf.depth >= cfg.max_depth {
            continue;
        }
        let cs = commitments(&conf.process, &ccfg);
        for c in &cs {
            match (&c.action, &c.agent) {
                (Action::Tau, Agent::Proc(q)) => {
                    push_conf(
                        &mut queue,
                        &mut visited,
                        &mut ticket,
                        Configuration {
                            process: q.clone(),
                            knowledge: conf.knowledge.clone(),
                            trace: extend(&conf.trace, "internal step".to_owned()),
                            depth: conf.depth + 1,
                        },
                    );
                }
                (Action::Out(m), Agent::Conc(conc)) => {
                    if !conf.knowledge.knows_channel(*m) {
                        continue;
                    }
                    let mut knowledge = conf.knowledge.clone();
                    knowledge.learn(Rc::clone(&conc.value));
                    let step = format!("intercept {} on {}", conc.value, m);
                    let trace = extend(&conf.trace, step);
                    if goal(&knowledge) {
                        let mut trace = trace;
                        trace.push("secret now derivable".to_owned());
                        return Some(Attack {
                            knowledge_size: knowledge.len(),
                            trace,
                        });
                    }
                    push_conf(
                        &mut queue,
                        &mut visited,
                        &mut ticket,
                        Configuration {
                            process: conc.body.clone(),
                            knowledge,
                            trace,
                            depth: conf.depth + 1,
                        },
                    );
                }
                (Action::In(m), Agent::Abs(abs)) => {
                    if !conf.knowledge.knows_channel(*m) {
                        continue;
                    }
                    for v in injection_candidates(&conf.knowledge, cfg) {
                        let next = abs.body.subst(abs.var, &v);
                        push_conf(
                            &mut queue,
                            &mut visited,
                            &mut ticket,
                            Configuration {
                                process: next,
                                knowledge: conf.knowledge.clone(),
                                trace: extend(&conf.trace, format!("inject {v} on {m}")),
                                depth: conf.depth + 1,
                            },
                        );
                    }
                }
                _ => {}
            }
        }
    }
    None
}

fn extend(trace: &[String], step: String) -> Vec<String> {
    let mut t = trace.to_vec();
    t.push(step);
    t
}

fn injection_candidates(k: &Knowledge, cfg: &IntruderConfig) -> Vec<Rc<Value>> {
    // Composite values first: intercepted protocol messages (pairs and
    // ciphertexts) are the most valuable things to replay; bare names and
    // numerals follow.
    let composites = k
        .iter()
        .filter(|v| matches!(&***v, Value::Pair(_, _) | Value::Enc { .. }));
    let names = k.iter().filter(|v| matches!(&***v, Value::Name(_)));
    let rest = k.iter().filter(|v| {
        !matches!(
            &***v,
            Value::Pair(_, _) | Value::Enc { .. } | Value::Name(_)
        )
    });
    let mut out: Vec<Rc<Value>> = composites
        .chain(names)
        .chain(rest)
        .take(cfg.max_injections)
        .cloned()
        .collect();
    // Depth-1 pair synthesis: forged messages of the common
    // `(tag, ciphertext)` shape, assembled from known names and known
    // ciphertexts. This is what re-assembling Otway–Rees message 4 from
    // projected parts needs.
    if cfg.pair_components > 0 {
        let names: Vec<Rc<Value>> = k
            .iter()
            .filter(|v| matches!(&***v, Value::Name(_)))
            .take(cfg.pair_components)
            .cloned()
            .collect();
        let encs: Vec<Rc<Value>> = k
            .iter()
            .filter(|v| matches!(&***v, Value::Enc { .. }))
            .take(cfg.pair_components / 2 + 1)
            .cloned()
            .collect();
        for n in &names {
            for e in &encs {
                for p in [
                    Value::pair(Rc::clone(n), Rc::clone(e)),
                    Value::pair(Rc::clone(e), Rc::clone(n)),
                ] {
                    if !out.contains(&p) {
                        out.push(p);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_syntax::parse_process;

    fn k0(names: &[&str]) -> Knowledge {
        Knowledge::from_names(names.iter().copied())
    }

    fn cfg() -> IntruderConfig {
        IntruderConfig::default()
    }

    #[test]
    fn closure_contains_numbers_and_projections() {
        let mut k = k0(&["c"]);
        k.learn(Value::pair(Value::name("a"), Value::numeral(2)));
        assert!(k.can_derive(&Value::name("a")));
        assert!(k.can_derive(&Value::numeral(1)), "peel successors");
        assert!(k.can_derive(&Value::numeral(9)), "rebuild successors");
        assert!(!k.can_derive(&Value::name("unknown")));
    }

    #[test]
    fn synthesis_builds_pairs() {
        let k = k0(&["a", "b"]);
        let w = Value::pair(
            Value::name("a"),
            Value::pair(Value::name("b"), Value::zero()),
        );
        assert!(k.can_derive(&w));
    }

    #[test]
    fn decryption_requires_the_key() {
        let ct = Value::enc(vec![Value::name("m")], Name::global("r"), Value::name("k"));
        let mut k = k0(&["c"]);
        k.learn(Rc::clone(&ct));
        assert!(!k.can_derive(&Value::name("m")), "key unknown");
        k.learn(Value::name("k"));
        assert!(k.can_derive(&Value::name("m")), "key known → payload out");
    }

    #[test]
    fn nested_decryption_cascades() {
        // {k2}k1 and {m}k2: learning k1 must open both layers.
        let inner = Value::enc(
            vec![Value::name("m")],
            Name::global("r2"),
            Value::name("k2"),
        );
        let outer = Value::enc(
            vec![Value::name("k2")],
            Name::global("r1"),
            Value::name("k1"),
        );
        let mut k = k0(&[]);
        k.learn(inner);
        k.learn(outer);
        assert!(!k.can_derive(&Value::name("m")));
        k.learn(Value::name("k1"));
        assert!(k.can_derive(&Value::name("m")), "cascaded analysis");
    }

    #[test]
    fn encryption_synthesis_needs_a_known_confounder() {
        let k = k0(&["k", "m", "r"]);
        let with_known_conf =
            Value::enc(vec![Value::name("m")], Name::global("r"), Value::name("k"));
        let with_unknown_conf = Value::enc(
            vec![Value::name("m")],
            Name::global("hidden"),
            Value::name("k"),
        );
        assert!(k.can_derive(&with_known_conf));
        assert!(!k.can_derive(&with_unknown_conf));
    }

    #[test]
    fn reveals_nothing_from_silent_process() {
        let p = parse_process("(new m) 0").unwrap();
        assert!(reveals(&p, &k0(&["c"]), Symbol::intern("m"), &cfg()).is_none());
    }

    #[test]
    fn cleartext_leak_is_found() {
        let p = parse_process("(new m) c<m>.0").unwrap();
        let attack = reveals(&p, &k0(&["c"]), Symbol::intern("m"), &cfg());
        assert!(attack.is_some());
        let attack = attack.unwrap();
        assert!(attack.trace.iter().any(|s| s.contains("intercept")));
    }

    #[test]
    fn encrypted_secret_under_restricted_key_survives() {
        let p = parse_process("(new k) (new m) c<{m, new r}:k>.0").unwrap();
        assert!(reveals(&p, &k0(&["c"]), Symbol::intern("m"), &cfg()).is_none());
    }

    #[test]
    fn key_leak_then_ciphertext_is_fatal() {
        // The process leaks the key first, then the ciphertext.
        let p = parse_process("(new k) (new m) (c<k>.0 | c<{m, new r}:k>.0)").unwrap();
        let attack = reveals(&p, &k0(&["c"]), Symbol::intern("m"), &cfg());
        assert!(attack.is_some());
    }

    #[test]
    fn intruder_cannot_use_unknown_channels() {
        // The leak happens on a restricted channel the intruder never
        // learns.
        let p = parse_process("(new d) (new m) (d<m>.0 | d(x).0)").unwrap();
        assert!(reveals(&p, &k0(&["c"]), Symbol::intern("m"), &cfg()).is_none());
    }

    #[test]
    fn extruded_channel_becomes_attack_surface() {
        // The process first publishes its private channel d, then sends
        // the secret on it.
        let p = parse_process("(new d) (new m) c<d>.d<m>.0").unwrap();
        let attack = reveals(&p, &k0(&["c"]), Symbol::intern("m"), &cfg());
        assert!(attack.is_some(), "intruder must chain the extruded channel");
    }

    #[test]
    fn active_injection_unlocks_a_leak() {
        // The process echoes whatever it receives, encrypting the secret
        // under the received key: injecting a known key breaks it.
        let p = parse_process("(new m) c(k). c<{m, new r}:k>.0").unwrap();
        let attack = reveals(&p, &k0(&["c", "evil"]), Symbol::intern("m"), &cfg());
        assert!(attack.is_some(), "inject evil key, decrypt the reply");
    }

    #[test]
    fn oracle_decryption_attack() {
        // A decryption oracle: receives a ciphertext under k and returns
        // the payload in clear. Replaying the protocol's own ciphertext
        // extracts the secret.
        let p =
            parse_process("(new k) (new m) (c<{m, new r}:k>.0 | c(x). case x of {y}:k in c<y>.0)")
                .unwrap();
        let attack = reveals(&p, &k0(&["c"]), Symbol::intern("m"), &cfg());
        assert!(attack.is_some(), "replay ciphertext into the oracle");
    }

    #[test]
    fn wmf_keeps_its_payload_secret() {
        let src = "
            (new m) (new kAS) (new kBS) (
              ((new kAB) cAS<{kAB, new r1}:kAS>. cAB<{m, new r2}:kAB>.0
               | cBS(t). case t of {y}:kBS in cAB(z). case z of {q}:y in 0)
              | cAS(x). case x of {s}:kAS in cBS<{s, new r3}:kBS>.0
            )";
        let p = parse_process(src).unwrap();
        let k = k0(&["cAS", "cBS", "cAB"]);
        assert!(reveals(&p, &k, Symbol::intern("m"), &cfg()).is_none());
        assert!(reveals(&p, &k, Symbol::intern("kAB"), &cfg()).is_none());
    }

    #[test]
    fn reveals_value_targets_structures() {
        let p = parse_process("(new m) c<(m, 0)>.0").unwrap();
        let target = Value::name("m");
        let attack = reveals_value(&p, &k0(&["c"]), &target, &cfg());
        assert!(attack.is_some(), "projection must expose the component");
    }

    #[test]
    fn initial_knowledge_already_contains_public_secret() {
        // Declaring a *public* name as the "secret" target: trivially known.
        let p = parse_process("0").unwrap();
        let attack = reveals(&p, &k0(&["m"]), Symbol::intern("m"), &cfg());
        assert!(attack.is_some());
        assert_eq!(attack.unwrap().trace.len(), 1);
    }
}
