//! The `level` operator: Definition 2 lifted to the product lattice.
//!
//! `level : Val′ → Conf × Integ` grades a value: the level of a compound
//! is the join of its parts — *except* under encryption with a key the
//! attacker cannot resolve, which re-publicises the ciphertext to lattice
//! bottom (the protection is the key). Confounders are discarded by
//! decryption and do not contribute.
//!
//! The abstract version ([`AbstractLevel`]) runs the same grading over
//! the CFA's grammar: for each nonterminal it computes the *set* of
//! levels its language may inhabit, as a monotone fixpoint over the
//! productions with [`LevelSet`] (a `u64` bitset) as the abstract domain.
//!
//! The paper's binary `kind` is not a second classifier: it is `level`
//! under the two-point projection [`Policy::binary`], where a value is
//! secret-kind exactly when its level escapes the bottom clearance.
//! [`crate::confinement`] and [`crate::carefulness`] decide Definitions 4
//! and 3 that way, and [`graded_flows`] decides the lattice form of
//! Definition 4 under the full policy: no value may flow on an
//! attacker-observable channel at a level outside the attacker's
//! clearance down-set.

use crate::lattice::{Level, LevelSet};
use crate::policy::Policy;
use nuspi_cfa::{analyze_with_attacker, FlowVar, Prod, Solution, VarId};
use nuspi_syntax::{Process, Symbol, Value};

/// `level(w)`: the lattice grade of a closed value.
pub fn level(w: &Value, policy: &Policy) -> Level {
    let lat = policy.lattice();
    match w {
        Value::Name(n) => policy.level_of(n.canonical()),
        Value::Zero => lat.bottom(),
        Value::Suc(inner) => level(inner, policy),
        Value::Pair(a, b) => lat.join(level(a, policy), level(b, policy)),
        Value::Enc { payload, key, .. } => {
            let protected = !policy.observes(level(key, policy));
            if protected || payload.is_empty() {
                lat.bottom()
            } else {
                payload
                    .iter()
                    .fold(lat.bottom(), |acc, w| lat.join(acc, level(w, policy)))
            }
        }
    }
}

/// The abstract level analysis: a fixpoint assigning a [`LevelSet`] to
/// every flow variable of a solution. Runs *after* the solver on the
/// solved grammar — the solver itself never sees levels, which is what
/// keeps its transcripts independent of the policy's lattice.
#[derive(Clone, Debug)]
pub struct AbstractLevel {
    facts: Vec<LevelSet>,
    observable: LevelSet,
}

impl AbstractLevel {
    /// Runs the fixpoint over the solved grammar.
    pub fn compute(sol: &Solution, policy: &Policy) -> AbstractLevel {
        let observable = policy.lattice().downset(policy.clearance());
        let n = sol.flow_vars().count();
        let mut facts = vec![LevelSet::empty(); n];
        loop {
            let mut changed = false;
            for (id, _) in sol.flow_vars() {
                let mut here = facts[id.index()];
                for p in sol.prods_of_id(id) {
                    here = here.union(prod_levels(p, &facts, policy, observable));
                }
                if here != facts[id.index()] {
                    facts[id.index()] = here;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        AbstractLevel { facts, observable }
    }

    /// The level set of a nonterminal.
    pub fn facts(&self, id: VarId) -> LevelSet {
        self.facts.get(id.index()).copied().unwrap_or_default()
    }

    /// The level set of a single production, evaluated against the
    /// computed fixpoint — lets callers single out *which* production of
    /// a flagged κ entry escapes the clearance.
    pub fn facts_of_prod(&self, p: &Prod, policy: &Policy) -> LevelSet {
        prod_levels(p, &self.facts, policy, self.observable)
    }

    /// Levels of the nonterminal that escape the attacker's clearance
    /// down-set, in pinned display order.
    pub fn escaping(&self, id: VarId) -> impl Iterator<Item = Level> {
        self.facts(id).minus(self.observable).iter()
    }

    /// Whether some level of the nonterminal escapes the clearance — under
    /// [`Policy::binary`], whether its language may hold a secret-kind
    /// value.
    pub fn escapes(&self, id: VarId) -> bool {
        !self.facts(id).minus(self.observable).is_empty()
    }

    /// Whether a production may derive a value whose level escapes the
    /// clearance. `policy` must be the one the fixpoint was computed
    /// under.
    pub fn prod_escapes(&self, p: &Prod, policy: &Policy) -> bool {
        !self
            .facts_of_prod(p, policy)
            .minus(self.observable)
            .is_empty()
    }
}

fn prod_levels(p: &Prod, facts: &[LevelSet], policy: &Policy, observable: LevelSet) -> LevelSet {
    let lat = policy.lattice();
    let get = |v: &VarId| facts.get(v.index()).copied().unwrap_or_default();
    match p {
        Prod::Name(n) => LevelSet::singleton(policy.level_of(*n)),
        Prod::Zero => LevelSet::singleton(lat.bottom()),
        Prod::Suc(a) => get(a),
        Prod::Pair(a, b) => get(a).pairwise_join(get(b), lat),
        Prod::Enc { args, key, .. } => {
            let ks = get(key);
            let mut out = LevelSet::empty();
            if args.is_empty() {
                // Ciphertext with no payload carries nothing: bottom,
                // provided a key inhabits the slot at all.
                if !ks.is_empty() {
                    out.insert(lat.bottom());
                }
                return out;
            }
            if args.iter().any(|a| get(a).is_empty()) {
                // Some slot is uninhabited: the language is empty.
                return out;
            }
            // A key the attacker cannot resolve protects the payload:
            // the ciphertext grades at bottom.
            if !ks.minus(observable).is_empty() {
                out.insert(lat.bottom());
            }
            // A resolvable key exposes the payload joins.
            if !ks.intersect(observable).is_empty() {
                let joined = args
                    .iter()
                    .fold(LevelSet::singleton(lat.bottom()), |acc, a| {
                        acc.pairwise_join(get(a), lat)
                    });
                out = out.union(joined);
            }
            out
        }
    }
}

/// A value may flow on an observable channel at a level outside the
/// attacker's clearance down-set — the lattice edge `level ⋢ clearance`
/// names the violated constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowViolation {
    /// The observable channel (canonical).
    pub channel: Symbol,
    /// The escaping level of some value in `κ(channel)`.
    pub level: Level,
    /// The level of the channel itself.
    pub channel_level: Level,
    /// The attacker clearance the level escapes.
    pub clearance: Level,
}

/// The outcome of the graded flow check.
#[derive(Debug)]
pub struct GradedReport {
    /// The abstract level facts.
    pub levels: AbstractLevel,
    /// Violations in (channel, pinned level order); empty means every
    /// flow respects the lattice.
    pub violations: Vec<FlowViolation>,
}

impl GradedReport {
    /// Whether every flow respects the lattice.
    pub fn is_confined(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Solves `p` together with the most powerful attacker *below the
/// clearance*: every name of [`Policy::opaque_names`] is opaque to it.
/// `policy` must already carry `p`'s hidden names.
pub(crate) fn attacked_solution(p: &Process, policy: &Policy) -> Solution {
    let opaque = policy.opaque_names().into_iter().collect();
    analyze_with_attacker(p, &opaque).solution
}

/// Checks the lattice form of confinement: solves `p` together with the
/// most powerful attacker below the clearance (every name graded above
/// it is opaque, as is every `hide`-bound name), then demands that no
/// observable channel's κ contains a level outside the clearance
/// down-set.
pub fn graded_flows(p: &Process, policy: &Policy) -> GradedReport {
    let policy = policy.with_hidden_of(p);
    graded_flows_with(&policy, &attacked_solution(p, &policy))
}

/// Graded flow check against a caller-provided solution.
pub fn graded_flows_with(policy: &Policy, solution: &Solution) -> GradedReport {
    let clearance = policy.clearance();
    let levels = AbstractLevel::compute(solution, policy);
    let mut violations = Vec::new();
    for chan in solution.channels() {
        let channel_level = policy.level_of(chan);
        let observable_chan =
            policy.observes(channel_level) || chan == nuspi_cfa::attacker::attacker_name();
        if !observable_chan {
            continue; // κ of an unobservable channel is unconstrained
        }
        if let Some(id) = solution.var_id(FlowVar::Kappa(chan)) {
            for l in levels.escaping(id) {
                violations.push(FlowViolation {
                    channel: chan,
                    level: l,
                    channel_level,
                    clearance,
                });
            }
        }
    }
    GradedReport { levels, violations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::SecLattice;
    use nuspi_cfa::analyze;
    use nuspi_syntax::{parse_process, Name};

    fn pol(secrets: &[&str]) -> Policy {
        Policy::with_secrets(secrets.iter().copied())
    }

    fn diamond_pol() -> Policy {
        Policy::with_lattice(SecLattice::diamond4())
    }

    /// `kind(w) = S` of Definition 2: the level escapes the clearance.
    fn secret_kind(w: &Value, policy: &Policy) -> bool {
        !policy.observes(level(w, policy))
    }

    #[test]
    fn names_have_declared_kind() {
        let policy = pol(&["k"]);
        assert_eq!(level(&Value::name("k"), &policy), policy.lattice().secret());
        assert_eq!(level(&Value::name("c"), &policy), policy.lattice().bottom());
    }

    #[test]
    fn numerals_are_public() {
        assert!(!secret_kind(&Value::numeral(4), &pol(&["k"])));
    }

    #[test]
    fn a_drop_of_secret_poisons_pairs() {
        let policy = pol(&["m"]);
        assert!(secret_kind(
            &Value::pair(Value::zero(), Value::name("m")),
            &policy
        ));
        assert!(!secret_kind(
            &Value::pair(Value::zero(), Value::name("c")),
            &policy
        ));
    }

    #[test]
    fn suc_inherits_kind() {
        assert!(secret_kind(&Value::suc(Value::name("m")), &pol(&["m"])));
    }

    #[test]
    fn secret_key_publicises_ciphertext() {
        let w = Value::enc(vec![Value::name("m")], Name::global("r"), Value::name("k"));
        assert!(
            !secret_kind(&w, &pol(&["k", "m"])),
            "protected by the secret key"
        );
    }

    #[test]
    fn public_key_leaves_secret_payload_secret() {
        let w = Value::enc(
            vec![Value::name("m")],
            Name::global("r"),
            Value::name("pubkey"),
        );
        assert!(secret_kind(&w, &pol(&["m"])));
    }

    #[test]
    fn empty_payload_is_public() {
        let w = Value::enc(vec![], Name::global("r"), Value::name("pub"));
        assert!(!secret_kind(&w, &pol(&["m"])));
    }

    #[test]
    fn confounders_do_not_affect_kind() {
        let w = Value::enc(vec![Value::zero()], Name::global("r"), Value::name("pub"));
        assert!(!secret_kind(&w, &pol(&["r"])), "confounders are discarded");
    }

    /// `(may_secret, may_public)` of `κ(chan)` in the plain solution of
    /// `src` under the two-point policy with the given secrets.
    fn kappa_kinds(src: &str, secrets: &[&str], chan: &str) -> (bool, bool) {
        let sol = analyze(&parse_process(src).unwrap());
        let policy = pol(secrets);
        let levels = AbstractLevel::compute(&sol, &policy);
        let id = sol.var_id(FlowVar::Kappa(Symbol::intern(chan))).unwrap();
        let observable = policy.lattice().downset(policy.clearance());
        let public = !levels.facts(id).intersect(observable).is_empty();
        (levels.escapes(id), public)
    }

    #[test]
    fn abstract_kind_matches_concrete_on_wmf_channels() {
        let src = "
            (new kAS) (new kBS) (
              ((new kAB) cAS<{kAB, new r1}:kAS>. cAB<{m, new r2}:kAB>.0
               | cBS(t). case t of {y}:kBS in cAB(z). case z of {q}:y in 0)
              | cAS(x). case x of {s}:kAS in cBS<{s, new r3}:kBS>.0
            )";
        // Everything flowing on the public channels is public-kind: the
        // ciphertexts are protected by secret keys.
        for c in ["cAS", "cBS", "cAB"] {
            let kinds = kappa_kinds(src, &["kAS", "kBS", "kAB", "m"], c);
            assert_eq!(kinds, (false, true), "κ({c}) must be all-public");
        }
    }

    #[test]
    fn abstract_kind_flags_cleartext_secret() {
        assert!(kappa_kinds("(new m) c<m>.0", &["m"], "c").0);
    }

    #[test]
    fn abstract_kind_handles_recursive_grammars() {
        // κ(c) derives arbitrarily deep numerals; all public.
        let kinds = kappa_kinds("c<0>.0 | !c(x).c<suc(x)>.0", &[], "c");
        assert_eq!(kinds, (false, true));
    }

    #[test]
    fn abstract_kind_secret_key_publicises() {
        let kinds = kappa_kinds("(new k) (new m) c<{m, new r}:k>.0", &["k", "m"], "c");
        assert_eq!(kinds, (false, true));
    }

    #[test]
    fn abstract_kind_public_key_leaks() {
        assert!(kappa_kinds("(new m) c<{m, new r}:pub>.0", &["m"], "c").0);
    }

    #[test]
    fn graded_flows_match_confinement_on_two_point() {
        let confined = "(new k) (new m) c<{m, new r}:k>.0";
        let leaky = "(new m) c<m>.0";
        let policy = pol(&["k", "m"]);
        let ok = graded_flows(&parse_process(confined).unwrap(), &policy);
        assert!(ok.is_confined(), "{:?}", ok.violations);
        let bad = graded_flows(&parse_process(leaky).unwrap(), &policy);
        assert!(!bad.is_confined());
        // Both the concrete channel and the attacker ether are flagged.
        assert!(bad.violations.iter().any(|v| v.channel.as_str() == "c"));
    }

    #[test]
    fn intermediate_level_escapes_bottom_clearance() {
        // A confidential-graded name is not observable at bottom
        // clearance — the binary analysis could only call it "secret",
        // the graded one names the exact level.
        let mut policy = diamond_pol();
        let lat = policy.lattice().clone();
        let conf = lat.level("confidential", "trusted").unwrap();
        policy.grade("db", conf);
        let p = parse_process("(new db) c<db>.0").unwrap();
        let report = graded_flows(&p, &policy);
        assert!(!report.is_confined());
        let v = report
            .violations
            .iter()
            .find(|v| v.channel.as_str() == "c")
            .expect("violation on the concrete channel");
        assert_eq!(v.level, conf);
        assert_eq!(v.clearance, lat.bottom());
    }

    #[test]
    fn clearance_above_grade_permits_the_flow() {
        let mut policy = diamond_pol();
        let lat = policy.lattice().clone();
        let conf = lat.level("confidential", "trusted").unwrap();
        policy.grade("db", conf);
        policy.set_clearance(conf);
        let p = parse_process("(new db) c<db>.0").unwrap();
        let report = graded_flows(&p, &policy);
        assert!(report.is_confined(), "{:?}", report.violations);
    }

    #[test]
    fn incomparable_clearance_still_blocks() {
        // restricted ⋢ confidential: raising clearance along the other
        // wing of the diamond must not unlock the flow.
        let mut policy = diamond_pol();
        let lat = policy.lattice().clone();
        policy.grade("db", lat.level("restricted", "trusted").unwrap());
        policy.set_clearance(lat.level("confidential", "trusted").unwrap());
        let p = parse_process("(new db) c<db>.0").unwrap();
        let report = graded_flows(&p, &policy);
        assert!(!report.is_confined());
    }

    #[test]
    fn key_graded_above_clearance_protects_payload() {
        // Encryption under a confidential key re-publicises — even
        // though the key is not at lattice top.
        let mut policy = diamond_pol();
        let lat = policy.lattice().clone();
        policy.grade("k", lat.level("confidential", "trusted").unwrap());
        policy.grade("m", lat.level("secret", "trusted").unwrap());
        let p = parse_process("(new k) (new m) c<{m, new r}:k>.0").unwrap();
        let report = graded_flows(&p, &policy);
        assert!(report.is_confined(), "{:?}", report.violations);
    }

    #[test]
    fn hidden_name_is_opaque_to_the_attacker() {
        // `hide` needs no policy entry: the bound name is secret by
        // construction, so sending it in clear is a violation.
        let policy = Policy::new();
        let p = parse_process("(hide h) c<h>.0").unwrap();
        let report = graded_flows(&p, &policy);
        assert!(!report.is_confined(), "hidden name escaped unnoticed");
    }
}
